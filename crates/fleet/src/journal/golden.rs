//! Golden-line fixtures for the campaign journal: the exact bytes the
//! encoders write for every line kind, and what those bytes decode to.
//! A journal written by an older binary must still resume, so these
//! strings are the on-disk format, not an implementation detail.

use gecko_compiler::CompileStats;
use gecko_sim::Metrics;
use gecko_store::Verdict;

use super::{classify_campaign_lines, decode_campaign, decode_header, encode_header, encode_run};
use crate::campaign::{RunResult, WorkItem};

const HEADER: &str =
    r#"{"journal":"campaign","name":"fig \"β\"\tsweep","fingerprint":18364758544493064720}"#;

const BUCKET: &str = r#"{"kind":"bucket","run_key":11400714819323198485,"bucket":0,"sim_time_s":0.00000031,"forward_cycles":100,"overhead_cycles":2,"completions":3,"checksum_errors":4,"jit_checkpoints":5,"jit_checkpoint_failures":6,"reboots":7,"dirty_deaths":8,"rollbacks":9,"recovery_slices":10,"attack_detections":11,"jit_reenables":12,"checkpoint_stores":13,"boundary_commits":14,"fault_skips":15,"fault_corruptions":16,"energy_nj":17250.0}"#;

const RUN_DONE: &str = r#"{"kind":"run_done","run_key":11400714819323198485,"item":3,"buckets":1,"cache_hit":true,"wall_ns":123456789,"cs_regions":21,"cs_regions_split":22,"cs_checkpoints_before":23,"cs_checkpoints_after":24,"cs_checkpoints_pruned":25,"cs_recovery_blocks":26,"cs_recovery_insts":27,"cs_coloring_fixups":28,"cs_boundaries_hoisted":29,"sim_time_s":0.30000000000000004,"forward_cycles":1001,"overhead_cycles":2,"completions":3,"checksum_errors":4,"jit_checkpoints":5,"jit_checkpoint_failures":6,"reboots":7,"dirty_deaths":8,"rollbacks":9,"recovery_slices":10,"attack_detections":11,"jit_reenables":12,"checkpoint_stores":13,"boundary_commits":14,"fault_skips":15,"fault_corruptions":16,"energy_nj":1234.5678}"#;

const RUN_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

fn final_metrics() -> Metrics {
    Metrics {
        sim_time_s: 0.1 + 0.2,
        forward_cycles: 1001,
        overhead_cycles: 2,
        completions: 3,
        checksum_errors: 4,
        jit_checkpoints: 5,
        jit_checkpoint_failures: 6,
        reboots: 7,
        dirty_deaths: 8,
        rollbacks: 9,
        recovery_slices: 10,
        attack_detections: 11,
        jit_reenables: 12,
        checkpoint_stores: 13,
        boundary_commits: 14,
        fault_skips: 15,
        fault_corruptions: 16,
        energy_nj: 1234.5678,
    }
}

fn result() -> RunResult {
    RunResult {
        item: WorkItem {
            index: 3,
            app_idx: 1,
            scheme_idx: 2,
            device_idx: 0,
            attack_idx: 1,
            fault_idx: 0,
            seed_idx: 4,
        },
        metrics: final_metrics(),
        buckets: vec![Metrics {
            sim_time_s: 3.1e-7,
            forward_cycles: 100,
            energy_nj: 17250.0,
            ..final_metrics()
        }],
        compile_stats: CompileStats {
            regions: 21,
            regions_split: 22,
            checkpoints_before: 23,
            checkpoints_after: 24,
            checkpoints_pruned: 25,
            recovery_blocks: 26,
            recovery_insts: 27,
            coloring_fixups: 28,
            boundaries_hoisted: 29,
        },
        cache_hit: true,
        wall_ns: 123_456_789,
    }
}

fn fixtures() -> [&'static str; 3] {
    [HEADER, BUCKET, RUN_DONE]
}

#[test]
fn encoders_write_the_golden_bytes() {
    assert_eq!(
        encode_header("fig \"β\"\tsweep", 0xFEDC_BA98_7654_3210),
        HEADER
    );
    assert_eq!(encode_run(RUN_KEY, &result()), vec![BUCKET, RUN_DONE]);
}

#[test]
fn golden_lines_decode_to_the_expected_run() {
    assert_eq!(
        decode_header(HEADER),
        Some(("fig \"β\"\tsweep".to_string(), 0xFEDC_BA98_7654_3210))
    );
    let lines: Vec<String> = fixtures().iter().map(|l| l.to_string()).collect();
    let (runs, _) = decode_campaign(&lines);
    assert_eq!(runs.len(), 1);
    let run = &runs[&RUN_KEY];
    let expected = result();
    assert_eq!(run.item, expected.item.index);
    assert_eq!(run.metrics, expected.metrics);
    assert_eq!(run.buckets, expected.buckets);
    assert_eq!(run.compile_stats, expected.compile_stats);
    assert_eq!(run.cache_hit, expected.cache_hit);
    assert_eq!(run.wall_ns, expected.wall_ns);
    assert_eq!(
        run.metrics.sim_time_s.to_bits(),
        (0.1f64 + 0.2).to_bits(),
        "floats restore bit-exactly"
    );
    assert_eq!(classify_campaign_lines(&lines), vec![Verdict::Keep; 3]);
}

#[test]
fn every_strict_prefix_of_a_golden_line_is_garbage() {
    for line in fixtures() {
        for (cut, _) in line.char_indices() {
            let torn = vec![line[..cut].to_string()];
            assert_eq!(
                classify_campaign_lines(&torn),
                vec![Verdict::Delete],
                "{:?}",
                torn[0]
            );
            let (runs, _) = decode_campaign(&torn);
            assert!(
                decode_header(&torn[0]).is_none() && runs.is_empty(),
                "{:?}",
                torn[0]
            );
        }
    }
}

#[test]
fn nested_values_make_a_line_garbage() {
    for line in [
        r#"{"kind":"run_done","run_key":1,"extra":{"a":1}}"#,
        r#"{"kind":"bucket","run_key":1,"extra":[1]}"#,
        r#"{"journal":"campaign","name":"x","fingerprint":1,"tags":[]}"#,
        r#"{"kind":"other","nested":{}}"#,
    ] {
        assert_eq!(
            classify_campaign_lines(&[line.to_string()]),
            vec![Verdict::Delete],
            "{line}"
        );
        assert_eq!(decode_header(line), None, "{line}");
    }
}
