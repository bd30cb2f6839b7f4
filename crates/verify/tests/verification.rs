//! Acceptance-level demonstrations for the verification subsystem:
//! the clean protocol survives exhaustive checking and heavy fuzzing,
//! and a deliberately seeded protocol bug is caught by the model
//! checker, the differential fuzzer *and* the live invariant auditor.

use coma_types::{LineNum, ProcId};
use coma_verify::checker::{check, explore, CheckConfig};
use coma_verify::fuzz::{fuzz, FuzzConfig};
use coma_verify::mutant::{MutantEngine, Mutation};
use coma_verify::{clean_engine, ProtocolModel};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn clean_protocol_exhausts_two_node_space() {
    let cfg = CheckConfig::two_node_one_line();
    let r = check(&cfg);
    assert!(r.violation.is_none(), "{}", r.violation.unwrap());
    assert!(r.exhausted, "reachable space did not close: {r:?}");
}

#[test]
fn clean_protocol_survives_pressured_model_check() {
    // 3 lines over 2×2 AM slots: replacement, injection and page-out are
    // all reachable within depth 5, in both hierarchy modes.
    for inclusive in [true, false] {
        let r = check(&CheckConfig {
            inclusive,
            ..CheckConfig::pressured(2, 1, 3)
        });
        assert!(r.violation.is_none(), "{}", r.violation.unwrap());
        assert!(r.states_explored > 1000, "pressure not reached: {r:?}");
    }
}

#[test]
fn fuzzer_sustains_100k_ops_against_oracle() {
    let cfg = FuzzConfig::pressured(100_000, 42);
    for inclusive in [true, false] {
        let r = fuzz(&cfg, &|| clean_engine(cfg.geom, inclusive));
        assert!(r.failure.is_none(), "{}", r.failure.unwrap());
        assert_eq!(r.ops_run, 100_000);
    }
}

#[test]
fn checker_catches_seeded_skip_invalidate() {
    let cfg = CheckConfig::two_node_one_line();
    let r = explore(
        &cfg,
        MutantEngine::new(cfg.build_engine(), Mutation::SkipInvalidate),
    );
    let v = r.violation.expect("mutation must be caught");
    // BFS finds a minimal counterexample, and the trace printer renders
    // it as a replayable op sequence.
    assert!(!v.trace.is_empty());
    let rendered = v.to_string();
    assert!(rendered.contains("counterexample"), "{rendered}");
    assert!(rendered.contains("line 0"), "{rendered}");
}

#[test]
fn checker_catches_seeded_directory_corruption() {
    let cfg = CheckConfig::two_node_one_line();
    let r = explore(
        &cfg,
        MutantEngine::new(cfg.build_engine(), Mutation::ForgetDirectoryUpdate),
    );
    assert!(r.violation.is_some(), "mutation went undetected: {r:?}");
}

#[test]
fn fuzzer_catches_and_shrinks_seeded_mutation() {
    let cfg = FuzzConfig::pressured(50_000, 7);
    let r = fuzz(&cfg, &|| {
        MutantEngine::new(cfg.build_engine(), Mutation::SkipInvalidate)
    });
    let f = r.failure.expect("mutation must be caught by the oracle");
    assert!(
        !f.minimized.is_empty() && f.minimized.len() as u64 <= f.op_index + 1,
        "shrinking failed: {} ops from failing index {}",
        f.minimized.len(),
        f.op_index
    );
    // A lost invalidation needs at least: populate a replica, write over
    // it, read the stale copy — the minimized repro should be tiny.
    assert!(f.minimized.len() <= 10, "not minimal: {f}");
    // The minimized stream must still reproduce on a fresh mutant.
    let repro = coma_verify::fuzz::run_ops(
        &cfg,
        &|| MutantEngine::new(cfg.build_engine(), Mutation::SkipInvalidate),
        &f.minimized,
    );
    assert!(repro.is_some(), "minimized stream does not reproduce");
}

#[test]
fn live_auditor_catches_seeded_mutation() {
    // Build an audited engine, corrupt it through the mutant wrapper,
    // and verify the next protocol transaction trips the auditor.
    let mut cfg = CheckConfig::two_node_one_line();
    cfg.n_lines = 2;
    cfg.geom.am_assoc = 2; // room for the stale copy and a second line
    let mut engine = cfg.build_engine();
    engine.set_audit(true);
    let mut m = MutantEngine::new(engine, Mutation::SkipInvalidate);

    m.read(ProcId(1), LineNum(0)); // responsible copy at node 1
    m.read(ProcId(0), LineNum(0)); // replica at node 0
    m.write(ProcId(1), LineNum(0)); // upgrade "loses" node 0's invalidate

    // The corruption happened after the write's own audit pass; the next
    // access that performs a protocol transaction must catch it.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        m.write(ProcId(0), LineNum(1));
    }));
    let err = caught.expect_err("live auditor missed the stale copy");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("live audit"), "unexpected panic: {msg}");
}

#[test]
fn live_auditor_is_silent_on_the_clean_protocol() {
    let mut cfg = CheckConfig::two_node_one_line();
    cfg.n_lines = 2;
    cfg.geom.am_assoc = 2;
    let mut engine = cfg.build_engine();
    engine.set_audit(true);
    engine.read(ProcId(1), LineNum(0));
    engine.read(ProcId(0), LineNum(0));
    engine.write(ProcId(1), LineNum(0));
    engine.write(ProcId(0), LineNum(1));
    engine.read(ProcId(1), LineNum(1));
}

#[test]
fn smoke_campaign_is_green() {
    assert!(coma_verify::campaign::run(true, 0xC0A));
}
