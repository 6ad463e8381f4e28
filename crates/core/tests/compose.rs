//! The `--bmc` bound loop composes with any single-bound step: a plain
//! verify or one portfolio race per bound. It fails closed on a bound that
//! cannot be trusted. (Races of whole sweeps are checked family by family
//! in `tests/sweep_equivalence.rs`; every CLI combination in
//! `cli_modes.rs`.)

use zpre::prelude::*;
use zpre::{verify_bmc, verify_bmc_with, Fault, ShareConfig};

/// `k* = 3`: the loop must run three times before the bug is reachable.
fn kstar3() -> Program {
    ProgramBuilder::new("kstar3")
        .width(8)
        .shared("x", 0)
        .main(vec![
            while_(lt(v("x"), c(3)), vec![assign("x", add(v("x"), c(1)))]),
            assert_(ne(v("x"), c(3))),
        ])
        .build()
}

#[test]
fn bound_loop_races_every_bound() {
    let base = VerifyOptions::new(MemoryModel::Tso, Strategy::Zpre);
    let plain = verify_bmc(&kstar3(), 5, &base).unwrap();
    let raced = verify_bmc_with(&kstar3(), 5, &base, |o| {
        let opts = PortfolioOptions::new(o.clone()).with_share(ShareConfig::default());
        let folio = verify_portfolio(&kstar3(), &opts);
        assert!(folio.winner.is_some(), "bound {}", o.unroll_bound);
        Ok(folio.outcome)
    })
    .unwrap();
    assert_eq!((raced.verdict, raced.bound), (Verdict::Unsafe, 3));
    assert_eq!((plain.verdict, plain.bound), (raced.verdict, raced.bound));
    assert_eq!(raced.frames.len(), 3);
    for (p, r) in plain.frames.iter().zip(&raced.frames) {
        assert_eq!((p.bound, p.verdict), (r.bound, r.verdict));
    }
}

#[test]
fn a_failing_bound_ends_the_loop_with_its_error() {
    // Bound 1 is Safe; a truncated proof makes its certification fail,
    // which must surface as the typed error instead of a panic.
    let opts = VerifyOptions {
        certify: true,
        fault: Some(Fault::TruncateProof(1)),
        ..VerifyOptions::new(MemoryModel::Sc, Strategy::Zpre)
    };
    match verify_bmc(&kstar3(), 6, &opts) {
        Err(VerifyError::Certification { .. }) => {}
        other => panic!("expected a certification error, got {other:?}"),
    }
}
