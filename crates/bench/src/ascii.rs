//! ASCII renderings of the paper's plots (log-log scatter, bar charts) so
//! the harness can display figures directly in the terminal.

/// Renders a log-log scatter of `(baseline_ms, zpre_ms)` points, the
//  terminal analogue of Figures 6–8. Points below the diagonal are wins
/// for ZPRE (`·` on/near the diagonal, `+` below = faster, `x` above =
/// slower).
pub fn scatter(points: &[(String, f64, f64)], title: &str) -> String {
    const N: usize = 41; // grid size
    if points.is_empty() {
        return format!("{title}\n(no points)\n");
    }
    let min = points
        .iter()
        .flat_map(|p| [p.1, p.2])
        .fold(f64::INFINITY, f64::min)
        .max(0.01);
    let max = points
        .iter()
        .flat_map(|p| [p.1, p.2])
        .fold(0.0f64, f64::max)
        .max(min * 10.0);
    let (lmin, lmax) = (min.ln(), max.ln());
    let scale = |v: f64| -> usize {
        let v = v.max(min);
        (((v.ln() - lmin) / (lmax - lmin)) * (N - 1) as f64).round() as usize
    };
    let mut grid = vec![vec![' '; N]; N];
    for (i, row) in grid.iter_mut().enumerate() {
        row[i] = '/'; // the diagonal (equal time)
    }
    for (_, base, zpre) in points {
        let (x, y) = (scale(*base), scale(*zpre));
        let c = if y + 1 < x {
            '+' // below diagonal: ZPRE faster
        } else if x + 1 < y {
            'x' // above diagonal: ZPRE slower
        } else {
            '·'
        };
        grid[y][x] = c;
    }
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "y = ZPRE time, x = baseline time, log scale {:.2}ms ..= {:.0}ms\n",
        min, max
    ));
    for row in grid.iter().rev() {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(N));
    out.push('\n');
    let below = points.iter().filter(|p| p.2 < p.1).count();
    out.push_str(&format!(
        "{} points, {} below the diagonal (ZPRE faster), {} above\n",
        points.len(),
        below,
        points.iter().filter(|p| p.2 > p.1).count()
    ));
    out
}

/// Renders per-subcategory totals with speedup bars, the terminal
/// analogue of Figures 9–11.
pub fn subcat_bars(rows: &[(String, f64, f64, f64)], title: &str) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>9}  speedup\n",
        "subcategory", "baseline(s)", "zpre(s)", "speedup"
    ));
    for (name, base, zpre, speedup) in rows {
        let bar_len = (speedup * 10.0).round().clamp(0.0, 60.0) as usize;
        out.push_str(&format!(
            "{:<14} {:>12.3} {:>12.3} {:>8.2}x  {}\n",
            name,
            base,
            zpre,
            speedup,
            "#".repeat(bar_len)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_renders_points_and_counts() {
        let pts = vec![
            ("a".to_string(), 100.0, 10.0),
            ("b".to_string(), 10.0, 100.0),
            ("c".to_string(), 50.0, 50.0),
        ];
        let s = scatter(&pts, "test");
        assert!(s.contains("test"));
        assert!(s.contains('+'));
        assert!(s.contains('x'));
        assert!(s.contains("1 below the diagonal"));
    }

    #[test]
    fn scatter_handles_empty() {
        assert!(scatter(&[], "t").contains("no points"));
    }

    #[test]
    fn bars_render_speedups() {
        let rows = vec![("wmm".to_string(), 10.0, 5.0, 2.0)];
        let s = subcat_bars(&rows, "fig9");
        assert!(s.contains("wmm"));
        assert!(s.contains("2.00x"));
        assert!(s.contains("####"));
    }
}
