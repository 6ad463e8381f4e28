//! `harness` checks its experiment names before it runs anything: an
//! unknown name, or a misspelt flag, exits 2 with the list of valid names
//! and leaves no output behind.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn unknown_argument_is_a_usage_error_before_any_run() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("harness_unknown_argument");
    let _ = std::fs::remove_dir_all(&out_dir);
    for bad in ["--telemtry", "tabel1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["--scale", "quick", "--out"])
            .arg(&out_dir)
            .args([bad, "table2"])
            .output()
            .expect("harness runs");
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(out.stdout.is_empty(), "{bad}: nothing was run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{bad:?}")), "{stderr}");
        assert!(
            stderr.contains(
                "experiments: validate table1 table2 table3 fig6 fig7 fig8 fig9 fig10 \
                 fig11 ablation portfolio probe all"
            ),
            "{stderr}"
        );
        assert!(!out_dir.exists(), "{bad}: no output directory");
    }
}
