//! Torn and nested journal lines under every prune classifier.
//!
//! The fixtures are the golden bytes of every line kind the workspace
//! persists (the unit tests next to each encoder pin the same strings):
//! the campaign journal header, `bucket` and `run_done`; and the memo
//! store's `memo_meta` and `memo_slab`, plus the `memo_state` and
//! `memo_drop` lines only older binaries wrote (still read, as retired
//! records). A kill mid-append leaves a strict prefix of one of them,
//! which every classifier must treat as garbage, never as a foreign
//! record to keep and never with a panic.

use gecko_check::classify_memo_lines;
use gecko_fleet::journal::classify_campaign_lines;
use gecko_store::Verdict;

const FIXTURES: [&str; 7] = [
    r#"{"journal":"campaign","name":"fig \"β\"\tsweep","fingerprint":18364758544493064720}"#,
    r#"{"kind":"bucket","run_key":11400714819323198485,"bucket":0,"sim_time_s":0.00000031,"forward_cycles":100,"overhead_cycles":2,"completions":3,"checksum_errors":4,"jit_checkpoints":5,"jit_checkpoint_failures":6,"reboots":7,"dirty_deaths":8,"rollbacks":9,"recovery_slices":10,"attack_detections":11,"jit_reenables":12,"checkpoint_stores":13,"boundary_commits":14,"fault_skips":15,"fault_corruptions":16,"energy_nj":17250.0}"#,
    r#"{"kind":"run_done","run_key":11400714819323198485,"item":3,"buckets":1,"cache_hit":true,"wall_ns":123456789,"cs_regions":21,"cs_regions_split":22,"cs_checkpoints_before":23,"cs_checkpoints_after":24,"cs_checkpoints_pruned":25,"cs_recovery_blocks":26,"cs_recovery_insts":27,"cs_coloring_fixups":28,"cs_boundaries_hoisted":29,"sim_time_s":0.30000000000000004,"forward_cycles":1001,"overhead_cycles":2,"completions":3,"checksum_errors":4,"jit_checkpoints":5,"jit_checkpoint_failures":6,"reboots":7,"dirty_deaths":8,"rollbacks":9,"recovery_slices":10,"attack_detections":11,"jit_reenables":12,"checkpoint_stores":13,"boundary_commits":14,"fault_skips":15,"fault_corruptions":16,"energy_nj":1234.5678}"#,
    r#"{"kind":"memo_meta","name":"fig \"β\"\tcheck","fingerprint":18364758544493064720,"generation":3}"#,
    r#"{"kind":"memo_slab","run_key":11400714819323198485,"start":64,"end":128,"done":96,"golden":4096,"program_fp":1229782938247303441,"rfp":2459565876494606882,"regions":"1,4,17","windows":32,"forks":128,"explored":40,"memo_hits":88,"steps":5000,"violations":1,"viols":"70|12p,3c|corrupt.4294967291"}"#,
    r#"{"kind":"memo_state","run_key":11400714819323198485,"upto":96,"state":16045690984503111693,"outcome":"corrupt.2147483648"}"#,
    r#"{"kind":"memo_drop","run_key":11400714819323198485}"#,
];

type Classifier = fn(&[String]) -> Vec<Verdict>;

const CLASSIFIERS: [(&str, Classifier); 2] = [
    ("campaign", classify_campaign_lines),
    ("memo", classify_memo_lines),
];

fn assert_garbage(line: &str) {
    for (name, classify) in CLASSIFIERS {
        assert_eq!(
            classify(&[line.to_string()]),
            vec![Verdict::Delete],
            "{name} classifier kept {line:?}"
        );
    }
}

#[test]
fn every_strict_prefix_of_every_golden_line_is_garbage() {
    for line in FIXTURES {
        for (cut, _) in line.char_indices() {
            assert_garbage(&line[..cut]);
        }
    }
}

#[test]
fn lines_carrying_nested_values_are_garbage() {
    for line in FIXTURES {
        let body = line.strip_suffix('}').unwrap();
        assert_garbage(&format!(r#"{body},"extra":{{"a":1}}}}"#));
        assert_garbage(&format!(r#"{body},"extra":[1]}}"#));
        assert_garbage(&format!(r#"{body},"extra":[]}}"#));
    }
}

#[test]
fn retired_memo_lines_are_deleted_whole() {
    for line in &FIXTURES[5..] {
        assert_eq!(
            classify_memo_lines(&[line.to_string()]),
            vec![Verdict::Delete],
            "{line}"
        );
    }
}
