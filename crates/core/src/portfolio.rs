//! Portfolio verification: race several strategies, first verdict wins.
//!
//! Table 3 of the paper (and `experiments_output.txt`) shows the three main
//! strategies routinely differing by 3x on the same task, and single
//! heuristics can be exponentially unlucky on adversarial instances. A
//! portfolio hedges both: every member runs the same body — one bound's
//! verify over the *same* SSA program ([`verify_portfolio`]) or a whole
//! bound sweep ([`try_verify_portfolio_sweep`]) — under its own
//! strategy/seed on its own scoped thread, the first
//! definitive ([`Verdict::Safe`] / [`Verdict::Unsafe`]) answer wins, and a
//! shared [`CancelToken`] stops the losers within a bounded work stride
//! (see `zpre_sat::Budget`).
//!
//! Fault tolerance: every member runs under `catch_unwind`, so a member
//! that panics — or fails with a typed [`VerifyError`], e.g. a rejected
//! certification — is *quarantined* (recorded in
//! [`PortfolioOutcome::quarantined`] with its error in
//! [`MemberResult::error`]) while the survivors keep racing. If no member
//! reaches a definitive verdict and at least one was quarantined, the
//! portfolio makes one bounded retry (baseline strategy, fresh seed)
//! before settling on [`Verdict::Unknown`] with a reason. Disagreement
//! between definitive members — a solver bug — is likewise surfaced as an
//! `Unknown` with a reason rather than a crash.
//!
//! Determinism notes: the *verdict* is deterministic (every member solves
//! the same instance and strategy agreement is an invariant, cross-checked
//! here), but the *winner* and the statistics are race-dependent. Each
//! member's deterministic conflict cap is untouched by cancellation — a
//! member that exhausts `max_conflicts` reports `Unknown` exactly as in a
//! single-strategy run.

use crate::errors::VerifyError;
use crate::incremental::{refuse_certified, try_verify_sweep};
use crate::strategy::Strategy;
use crate::verifier::{
    front_end, verify_unrolled, FrameOutcome, Verdict, VerifyOptions, VerifyOutcome,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use zpre_obs::{MemberRecord, Recorder};
use zpre_prog::Program;
use zpre_sat::{CancelToken, ExhaustionReason, ShareConfig, ShareSpec, SharedPool};

/// One racing configuration.
#[derive(Clone, Debug)]
pub struct PortfolioMember {
    /// Display name (strategy name, suffixed when seed-varied).
    pub name: String,
    /// The solving strategy.
    pub strategy: Strategy,
    /// Seed for the random decision polarities.
    pub seed: u64,
}

impl PortfolioMember {
    /// A member running `strategy` with `seed`, named after the strategy.
    pub fn new(strategy: Strategy, seed: u64) -> PortfolioMember {
        PortfolioMember {
            name: strategy.name().to_string(),
            strategy,
            seed,
        }
    }
}

/// Options for a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOptions {
    /// Shared per-member options: memory model, unroll bound, budgets,
    /// certification. The `strategy` / `seed` fields are overridden per
    /// member, and `cancel` is replaced by the portfolio's internal token —
    /// though when set, an external trip still stops the whole portfolio.
    pub base: VerifyOptions,
    /// The racing members, in result order.
    pub members: Vec<PortfolioMember>,
    /// Learnt-clause sharing across members: when set, the race creates one
    /// [`SharedPool`] and hands every member an interference-aware export/
    /// import endpoint. Sound because every member solves the identical
    /// CNF+theory instance. The bounded retry never shares — it exists to
    /// re-check a suspect race from a clean slate — and neither does
    /// [`try_verify_portfolio_sweep`].
    pub share: Option<ShareConfig>,
}

impl PortfolioOptions {
    /// The default portfolio over `base`: ZPRE, ZPRE⁻, and the baseline on
    /// `base.seed`, plus a polarity-varied ZPRE (different seed) to hedge
    /// unlucky random polarities.
    pub fn new(base: VerifyOptions) -> PortfolioOptions {
        let seed = base.seed;
        let varied = seed ^ 0x9E37_79B9_7F4A_7C15;
        let members = vec![
            PortfolioMember::new(Strategy::Zpre, seed),
            PortfolioMember::new(Strategy::ZpreMinus, seed),
            PortfolioMember::new(Strategy::Baseline, seed),
            PortfolioMember {
                name: format!("{}#2", Strategy::Zpre.name()),
                strategy: Strategy::Zpre,
                seed: varied,
            },
        ];
        PortfolioOptions {
            base,
            members,
            share: None,
        }
    }

    /// Enables cross-member clause sharing with `cfg`.
    pub fn with_share(mut self, cfg: ShareConfig) -> PortfolioOptions {
        self.share = Some(cfg);
        self
    }
}

/// What one member did during the race.
#[derive(Clone, Debug)]
pub struct MemberResult {
    /// The member's display name.
    pub name: String,
    /// Its strategy.
    pub strategy: Strategy,
    /// Its verdict: `Unknown` for cancelled losers, budget exhaustion, and
    /// quarantined members.
    pub verdict: Verdict,
    /// Its wall-clock time (encode + solve) inside the race.
    pub time: Duration,
    /// `true` when the member was still running as the winner finished
    /// (its `Unknown` is a cancellation, not a budget exhaustion).
    pub cancelled: bool,
    /// Why the member was quarantined: the panic message or the typed
    /// error's rendering. `None` for healthy members.
    pub error: Option<String>,
    /// Which resource ended an `Unknown` member: the solver's structured
    /// reason for healthy members (conflicts / time / memory / cancelled),
    /// [`ExhaustionReason::Quarantined`] for failed ones, `None` on a
    /// definitive verdict.
    pub exhaustion: Option<ExhaustionReason>,
}

/// Result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning member's full outcome: one bound's for
    /// [`verify_portfolio`], a whole sweep's for
    /// [`try_verify_portfolio_sweep`] (or a synthesized `Unknown` outcome
    /// when no member was definitive).
    pub outcome: VerifyOutcome,
    /// Winning member's name; `None` when every member returned `Unknown`
    /// or was quarantined.
    pub winner: Option<String>,
    /// Per-member results in `PortfolioOptions::members` order (plus a
    /// trailing entry for the bounded retry, when one ran).
    pub members: Vec<MemberResult>,
    /// Names of members that panicked or failed with a typed error.
    pub quarantined: Vec<String>,
    /// Why the race ended `Unknown`, when it did without a plain budget
    /// exhaustion (member failures, disagreement).
    pub unknown_reason: Option<String>,
    /// Time from the winning verdict until the last loser stopped — the
    /// observable cancellation latency. `None` without a winner.
    pub cancel_latency: Option<Duration>,
}

impl PortfolioOutcome {
    /// The verdict of the race.
    pub fn verdict(&self) -> Verdict {
        self.outcome.verdict
    }
}

/// One member's whole run under its own options.
type Body<'a> = dyn Fn(&VerifyOptions) -> Result<VerifyOutcome, VerifyError> + Sync + 'a;

/// Unrolls + SSA-converts `prog` once, then races the members' single-bound
/// verifies over it.
///
/// # Panics
///
/// Panics on a program that fails [`Program::validate`].
pub fn verify_portfolio(prog: &Program, opts: &PortfolioOptions) -> PortfolioOutcome {
    let (unrolled, ssa) = front_end(prog, &opts.base).unwrap_or_else(|e| panic!("{e}"));
    let body = |o: &VerifyOptions| verify_unrolled(&unrolled, &ssa, o, Instant::now());
    race(
        opts,
        &body,
        quarantined(opts.base.unroll_bound, ssa.events.len()),
    )
}

/// Races the members' whole bound sweeps over `1..=base.max_bound`: each
/// member runs [`try_verify_sweep`] under its own strategy and seed.
///
/// `share` is ignored: a sweep solves every frame under a non-empty
/// assumption prefix, and the solver exchanges clauses only at the root
/// (DESIGN.md §6g), so a pool would collect exports nobody imports. Fails
/// closed, before racing, on what a single sweep cannot do
/// (certification).
pub fn try_verify_portfolio_sweep(
    prog: &Program,
    opts: &PortfolioOptions,
) -> Result<PortfolioOutcome, VerifyError> {
    refuse_certified(&opts.base)?;
    let opts = PortfolioOptions {
        share: None,
        ..opts.clone()
    };
    Ok(race(
        &opts,
        &|o| try_verify_sweep(prog, o),
        quarantined(1, 0),
    ))
}

/// The outcome of a race whose every member failed: one `Unknown` frame at
/// `bound` with [`ExhaustionReason::Quarantined`].
fn quarantined(bound: u32, num_events: usize) -> VerifyOutcome {
    let exhaustion = Some(ExhaustionReason::Quarantined);
    VerifyOutcome {
        bound,
        frames: vec![FrameOutcome {
            bound,
            exhaustion,
            ..FrameOutcome::default()
        }],
        num_events,
        exhaustion,
        ..VerifyOutcome::default()
    }
}

/// One run under `opts`, quarantined: a panic becomes
/// [`VerifyError::MemberPanic`] instead of unwinding into the caller. Every
/// portfolio member and every batch-ladder rung runs through here.
pub(crate) fn run_member(
    body: impl FnOnce(&VerifyOptions) -> Result<VerifyOutcome, VerifyError>,
    opts: &VerifyOptions,
) -> Result<VerifyOutcome, VerifyError> {
    catch_unwind(AssertUnwindSafe(|| body(opts))).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        Err(VerifyError::MemberPanic {
            member: opts.strategy.name().to_string(),
            message,
        })
    })
}

/// Reports one finished member: its [`MemberResult`] and, with a recorder
/// installed, its per-strategy telemetry record (who won, who was
/// cancelled at what depth, who was quarantined and why).
fn report_member(
    rec: Option<&Recorder>,
    name: &str,
    strategy: Strategy,
    report: &Result<VerifyOutcome, String>,
    time: Duration,
    cancelled: bool,
    winner: bool,
) -> MemberResult {
    let m = MemberResult {
        name: name.to_string(),
        strategy,
        verdict: report.as_ref().map_or(Verdict::Unknown, |o| o.verdict),
        time,
        cancelled,
        error: report.as_ref().err().cloned(),
        exhaustion: match report {
            Ok(o) => o.exhaustion,
            Err(_) => Some(ExhaustionReason::Quarantined),
        },
    };
    if let Some(r) = rec {
        let (decisions, conflicts) = report
            .as_ref()
            .map_or((0, 0), |o| (o.stats.decisions, o.stats.conflicts));
        r.record_member(MemberRecord {
            name: m.name.clone(),
            strategy: m.strategy.name().to_string(),
            verdict: m.verdict.to_string(),
            winner,
            cancelled: m.cancelled,
            decisions,
            conflicts,
            time_us: m.time.as_micros() as u64,
            error: m.error.clone(),
        });
    }
    m
}

/// Races `body` — one member's whole run under its own options — for every
/// member on scoped threads: first definitive verdict wins, losers are
/// cancelled, failures are quarantined, dissent is surfaced and a race
/// without a definitive member makes one bounded retry. `unknown` is the
/// outcome reported when every member failed.
fn race(opts: &PortfolioOptions, body: &Body, unknown: VerifyOutcome) -> PortfolioOutcome {
    assert!(
        !opts.members.is_empty(),
        "portfolio needs at least one member"
    );
    let token = CancelToken::new();
    let external = opts.base.cancel.clone();
    // One pool per race; members get per-index endpoints below. Dropping
    // the race drops the pool — shared clauses never outlive the instance
    // they are consequences of.
    let share_pool = opts.share.map(|cfg| (SharedPool::new(cfg.pool_cap), cfg));
    type Report = (usize, Result<VerifyOutcome, String>, Duration);
    let (tx, rx) = mpsc::channel::<Report>();

    let mut slots: Vec<Option<(Result<VerifyOutcome, String>, Duration)>> =
        (0..opts.members.len()).map(|_| None).collect();
    let mut first_definitive: Option<usize> = None;
    let mut cancelled_at: Option<Instant> = None;
    let mut cancel_latency: Option<Duration> = None;

    std::thread::scope(|scope| {
        for (i, member) in opts.members.iter().enumerate() {
            let tx = tx.clone();
            let mut member_opts = opts.base.clone();
            member_opts.strategy = member.strategy;
            member_opts.seed = member.seed;
            member_opts.cancel = Some(token.clone());
            // All members share the base recorder's buffer; each clone tags
            // its spans/events with the member name so per-strategy streams
            // stay separable in the exported trace.
            member_opts.recorder = opts
                .base
                .recorder
                .as_ref()
                .map(|r| r.member_labeled(&member.name));
            member_opts.share = share_pool.as_ref().map(|(pool, cfg)| ShareSpec {
                pool: std::sync::Arc::clone(pool),
                member: i as u32,
                cfg: *cfg,
            });
            scope.spawn(move || {
                let t0 = Instant::now();
                let report = run_member(body, &member_opts).map_err(|e| e.to_string());
                // The receiver hangs up after processing every member, so a
                // send can only fail if the scope is already unwinding.
                let _ = tx.send((i, report, t0.elapsed()));
            });
        }
        drop(tx);

        loop {
            // Poll with a timeout so an external cancellation (a token in
            // `base.cancel`, tripped by a caller) propagates to members
            // mid-race instead of only between results.
            let (i, report, elapsed) = match rx.recv_timeout(Duration::from_millis(5)) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if external.as_ref().is_some_and(CancelToken::is_cancelled) {
                        token.cancel();
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            let definitive = matches!(&report, Ok(o) if o.verdict != Verdict::Unknown);
            if definitive && first_definitive.is_none() {
                first_definitive = Some(i);
                token.cancel();
                cancelled_at = Some(Instant::now());
            }
            slots[i] = Some((report, elapsed));
        }
        // All members have returned; the losers' stop latency is the time
        // since the winner tripped the token.
        cancel_latency = cancelled_at.map(|t| t.elapsed());
    });

    let results: Vec<(Result<VerifyOutcome, String>, Duration)> = slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| (Err("member never reported".to_string()), Duration::ZERO)))
        .collect();

    let mut quarantined: Vec<String> = opts
        .members
        .iter()
        .zip(&results)
        .filter(|(_, (r, _))| r.is_err())
        .map(|(m, _)| m.name.clone())
        .collect();
    let mut unknown_reason: Option<String> = None;

    // Cross-check: every definitive verdict must agree with the winner's,
    // and so must the bound that decided it. Disagreement is a solver bug;
    // surface it as an untrusted race rather than crashing the caller.
    if let Some(win) = first_definitive {
        let decided = |o: &VerifyOutcome| (o.verdict, o.bound);
        let says = |o: &VerifyOutcome| format!("{} at bound {}", o.verdict, o.bound);
        let winner = results[win].0.as_ref().expect("winner is Ok");
        let dissent = opts.members.iter().zip(&results).find(|(_, (r, _))| {
            matches!(r, Ok(o) if o.verdict != Verdict::Unknown && decided(o) != decided(winner))
        });
        if let Some((member, (r, _))) = dissent {
            unknown_reason = Some(format!(
                "portfolio members disagree: {} says {}, {} says {} — discarding both verdicts",
                opts.members[win].name,
                says(winner),
                member.name,
                says(r.as_ref().expect("dissenting member is Ok")),
            ));
            first_definitive = None;
            cancel_latency = None;
        }
    }

    let rec = opts.base.recorder.as_ref();
    let mut members: Vec<MemberResult> = opts
        .members
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(i, (member, (report, elapsed)))| {
            let cancelled = matches!(report, Ok(o) if o.verdict == Verdict::Unknown)
                && first_definitive.is_some();
            let winner = first_definitive == Some(i);
            report_member(
                rec,
                &member.name,
                member.strategy,
                report,
                *elapsed,
                cancelled,
                winner,
            )
        })
        .collect();

    if let Some(win) = first_definitive {
        let outcome = results
            .into_iter()
            .nth(win)
            .expect("winner index in range")
            .0
            .expect("winner is Ok");
        return PortfolioOutcome {
            outcome,
            winner: Some(opts.members[win].name.clone()),
            members,
            quarantined,
            unknown_reason,
            cancel_latency,
        };
    }

    // No definitive verdict. If members failed (rather than exhausting
    // budgets), make one bounded retry on the most conservative
    // configuration before giving up.
    if unknown_reason.is_none() && !quarantined.is_empty() {
        let mut retry_opts = opts.base.clone();
        retry_opts.strategy = Strategy::Baseline;
        retry_opts.seed = opts.base.seed.wrapping_add(0xDEAD_BEEF);
        retry_opts.cancel = external;
        retry_opts.share = None; // the retry re-checks from a clean slate
        retry_opts.recorder = opts
            .base
            .recorder
            .as_ref()
            .map(|r| r.member_labeled("retry:baseline"));
        let t0 = Instant::now();
        let report = run_member(body, &retry_opts).map_err(|e| e.to_string());
        let retry_name = "retry:baseline".to_string();
        let winner = matches!(&report, Ok(o) if o.verdict != Verdict::Unknown);
        members.push(report_member(
            rec,
            &retry_name,
            Strategy::Baseline,
            &report,
            t0.elapsed(),
            false,
            winner,
        ));
        match report {
            Ok(outcome) if outcome.verdict != Verdict::Unknown => {
                return PortfolioOutcome {
                    outcome,
                    winner: Some(retry_name),
                    members,
                    quarantined,
                    unknown_reason: None,
                    cancel_latency: None,
                };
            }
            Ok(_) => {
                unknown_reason = Some(format!(
                    "{} member(s) quarantined ({}); retry exhausted its budget",
                    quarantined.len(),
                    quarantined.join(", "),
                ));
            }
            Err(e) => {
                quarantined.push(retry_name);
                unknown_reason = Some(format!(
                    "{} member(s) quarantined ({}); retry failed: {e}",
                    quarantined.len(),
                    quarantined.join(", "),
                ));
            }
        }
    }

    // Prefer a real (budget-exhausted) member outcome for its statistics;
    // synthesize one only when every member failed.
    let outcome = results
        .into_iter()
        .find_map(|(r, _)| r.ok().filter(|o| o.verdict == Verdict::Unknown))
        .unwrap_or(unknown);

    PortfolioOutcome {
        outcome,
        winner: None,
        members,
        quarantined,
        unknown_reason,
        cancel_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::*;
    use zpre_prog::MemoryModel;

    fn racy() -> Program {
        let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
        ProgramBuilder::new("race")
            .shared("cnt", 0)
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build()
    }

    fn locked() -> Program {
        let inc = vec![
            lock("m"),
            assign("r", v("cnt")),
            assign("cnt", add(v("r"), c(1))),
            unlock("m"),
        ];
        ProgramBuilder::new("locked")
            .shared("cnt", 0)
            .mutex("m")
            .thread("w1", inc.clone())
            .thread("w2", inc)
            .main(vec![
                spawn(1),
                spawn(2),
                join(1),
                join(2),
                assert_(eq(v("cnt"), c(2))),
            ])
            .build()
    }

    #[test]
    fn portfolio_matches_single_strategy_verdicts() {
        for mm in MemoryModel::ALL {
            let base = VerifyOptions::new(mm, Strategy::Zpre);
            let single = crate::verifier::verify(&racy(), &base);
            let folio = verify_portfolio(&racy(), &PortfolioOptions::new(base));
            assert_eq!(folio.verdict(), single.verdict, "{mm}");
            assert_eq!(folio.verdict(), Verdict::Unsafe, "{mm}");
            assert!(
                folio.winner.is_some(),
                "{mm}: someone must win a solvable race"
            );
            assert_eq!(folio.members.len(), 4);
            assert!(folio.quarantined.is_empty(), "{mm}");
        }
    }

    #[test]
    fn portfolio_proves_safety() {
        let base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let folio = verify_portfolio(&locked(), &PortfolioOptions::new(base));
        assert_eq!(folio.verdict(), Verdict::Safe);
        let winner = folio.winner.as_deref().expect("definitive verdict");
        assert!(folio.members.iter().any(|m| m.name == winner));
    }

    #[test]
    fn exhausted_members_report_unknown_without_winner() {
        // A 0-conflict budget exhausts every member deterministically.
        let mut base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        base.max_conflicts = Some(0);
        let folio = verify_portfolio(&locked(), &PortfolioOptions::new(base));
        assert_eq!(folio.verdict(), Verdict::Unknown);
        assert!(folio.winner.is_none());
        assert!(folio.cancel_latency.is_none());
        assert!(folio.quarantined.is_empty());
        assert!(folio
            .members
            .iter()
            .all(|m| m.verdict == Verdict::Unknown && !m.cancelled));
        // Every member hit the deterministic conflict cap; the structured
        // reason survives the race.
        assert!(folio
            .members
            .iter()
            .all(|m| m.exhaustion == Some(ExhaustionReason::Conflicts)));
    }

    #[test]
    fn external_token_stops_the_whole_portfolio() {
        let token = CancelToken::new();
        token.cancel();
        let mut base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        base.cancel = Some(token);
        let folio = verify_portfolio(&racy(), &PortfolioOptions::new(base));
        // Pre-tripped external token: the internal token is tripped on the
        // first poll, so no member may report a definitive verdict late
        // enough to matter; either outcome must still be consistent.
        if folio.winner.is_none() {
            assert_eq!(folio.verdict(), Verdict::Unknown);
        }
    }

    #[test]
    fn single_member_portfolio_degenerates_to_plain_verify() {
        let base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        let opts = PortfolioOptions {
            base: base.clone(),
            members: vec![PortfolioMember::new(Strategy::Zpre, base.seed)],
            share: None,
        };
        let folio = verify_portfolio(&racy(), &opts);
        let single = crate::verifier::verify(&racy(), &base);
        assert_eq!(folio.verdict(), single.verdict);
        assert_eq!(folio.winner.as_deref(), Some(Strategy::Zpre.name()));
    }

    #[test]
    fn certified_portfolio_carries_a_certificate() {
        let mut base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        base.certify = true;
        let folio = verify_portfolio(&racy(), &PortfolioOptions::new(base.clone()));
        assert_eq!(folio.verdict(), Verdict::Unsafe);
        assert!(folio.outcome.certificate.is_some());

        let folio = verify_portfolio(&locked(), &PortfolioOptions::new(base));
        assert_eq!(folio.verdict(), Verdict::Safe);
        assert!(folio.outcome.certificate.is_some());
    }

    #[test]
    fn shared_portfolio_agrees_with_isolated_on_both_verdicts() {
        for prog in [racy(), locked()] {
            let base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
            let isolated = verify_portfolio(&prog, &PortfolioOptions::new(base.clone()));
            let shared = verify_portfolio(
                &prog,
                &PortfolioOptions::new(base).with_share(ShareConfig::default()),
            );
            assert_eq!(shared.verdict(), isolated.verdict(), "{}", prog.name);
            assert!(shared.quarantined.is_empty(), "{}", prog.name);
        }
    }

    #[test]
    fn faulty_members_are_quarantined_not_crashed() {
        // Inject a certification fault into every member: each one fails
        // with a typed error, the race must degrade to Unknown with a
        // reason (the retry inherits the faulty base options and fails
        // too), and nothing panics across the FFI of the race.
        let mut base = VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre);
        base.certify = true;
        base.fault = Some(crate::faults::Fault::TruncateProof(1));
        let folio = verify_portfolio(&locked(), &PortfolioOptions::new(base));
        assert_eq!(folio.verdict(), Verdict::Unknown);
        assert!(folio.winner.is_none());
        assert_eq!(folio.quarantined.len(), 5, "{:?}", folio.quarantined);
        assert!(folio.unknown_reason.is_some());
        assert!(folio.members.iter().all(|m| m.error.is_some()));
    }
    #[test]
    fn sweep_members_deciding_at_different_bounds_dissent() {
        // Every member says Unsafe, but one at bound 2 and the rest at
        // bound 3: the race must not trust either bound.
        let opts = PortfolioOptions::new(VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre));
        let body = |o: &VerifyOptions| {
            Ok(VerifyOutcome {
                verdict: Verdict::Unsafe,
                bound: if o.strategy == Strategy::ZpreMinus {
                    2
                } else {
                    3
                },
                ..Default::default()
            })
        };
        let folio = race(&opts, &body, quarantined(1, 0));
        assert!(folio.winner.is_none());
        let reason = folio.unknown_reason.expect("dissent is reported");
        assert!(reason.contains("at bound 2"), "{reason}");
    }

    #[test]
    fn quarantined_sweep_race_reports_why_it_is_unknown() {
        let opts = PortfolioOptions::new(VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre));
        let body = |_: &VerifyOptions| {
            Err(VerifyError::Certification {
                stage: "replay",
                reason: "injected".to_string(),
            })
        };
        let folio = race(&opts, &body, quarantined(1, 0));
        assert_eq!(folio.verdict(), Verdict::Unknown);
        assert_eq!(folio.quarantined.len(), 5, "{:?}", folio.quarantined);
        assert_eq!(folio.outcome.bound, 1);
        assert_eq!(folio.outcome.frames.len(), 1);
        assert_eq!(
            folio.outcome.exhaustion,
            Some(ExhaustionReason::Quarantined)
        );
    }
}
