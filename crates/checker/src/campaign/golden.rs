//! Golden-line fixture for the checker journal's `chunk_done` record: the
//! exact bytes the encoder writes and what they decode to. Journals of an
//! older binary must still resume, so this string is the on-disk format.

use super::{decode_chunks, encode_chunk, encode_header, JournaledChunk, JournaledViolation};
use crate::verdict::{Blame, CheckStats, InjectionKind, PlannedInjection, Violation};
use crate::Outcome;

const CHUNK_DONE: &str = r#"{"kind":"chunk_done","run_key":11400714819323198485,"item":6,"windows":512,"forks":2048,"explored":700,"memo_hits":1348,"steps":91234,"violations":2,"viols":"7|12p,3c|corrupt.4294967291;9|5k,1x,2w|stuck"}"#;

const RUN_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

fn stats() -> CheckStats {
    CheckStats {
        windows: 512,
        forks: 2048,
        explored: 700,
        memo_hits: 1348,
        steps: 91_234,
        violations: 2,
    }
}

fn journaled() -> Vec<JournaledViolation> {
    let inj = |after_steps, kind| PlannedInjection { after_steps, kind };
    vec![
        JournaledViolation {
            window: 7,
            schedule: vec![
                inj(12, InjectionKind::PowerFailure),
                inj(3, InjectionKind::SpoofedCheckpoint),
            ],
            outcome: Outcome::Corrupt { got: -5 },
        },
        JournaledViolation {
            window: 9,
            schedule: vec![
                inj(5, InjectionKind::InstructionSkip),
                inj(1, InjectionKind::InstructionCorrupt),
                inj(2, InjectionKind::SpoofedWakeup),
            ],
            outcome: Outcome::Stuck,
        },
    ]
}

#[test]
fn encoder_writes_the_golden_bytes() {
    let violations: Vec<Violation> = journaled()
        .into_iter()
        .map(|v| Violation {
            window: v.window,
            schedule: v.schedule,
            outcome: v.outcome,
            blame: Blame {
                region: None,
                block: None,
                boundary_index: Some(2),
                recovery_slots: 1,
                recovery_recomputes: 0,
                checkpoint_pc: None,
                detail: "blame is rebuilt on resume, never journaled".to_string(),
            },
        })
        .collect();
    assert_eq!(encode_chunk(RUN_KEY, 6, &stats(), &violations), CHUNK_DONE);
}

#[test]
fn golden_line_decodes_to_the_expected_chunk() {
    let lines = vec![encode_header("check", 7), CHUNK_DONE.to_string()];
    let (header, chunks, diagnostics) = decode_chunks(&lines);
    assert_eq!(header, Some(("check".to_string(), 7)));
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    assert_eq!(chunks.len(), 1);
    assert_eq!(
        chunks[&RUN_KEY],
        JournaledChunk {
            item: 6,
            stats: stats(),
            violations: journaled(),
        }
    );
}
