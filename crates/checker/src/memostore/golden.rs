//! Golden-line fixtures for the memo store: the exact bytes the encoder
//! writes for every record kind, and what those bytes decode to. A store
//! written by an older binary must still restore, so these strings are
//! the on-disk format. `STATE` and `DROP` are retired kinds only older
//! binaries wrote; they stay as legacy inputs.

use std::collections::BTreeSet;

use super::{decode_memo_text, encode_memo_line, MemoLine, SlabRecord};
use crate::campaign::JournaledViolation;
use crate::verdict::{CheckStats, InjectionKind, PlannedInjection};
use crate::Outcome;

const META: &str = r#"{"kind":"memo_meta","name":"fig \"β\"\tcheck","fingerprint":18364758544493064720,"generation":3}"#;

pub(super) const SLAB: &str = r#"{"kind":"memo_slab","run_key":11400714819323198485,"start":64,"end":128,"done":96,"golden":4096,"program_fp":1229782938247303441,"rfp":2459565876494606882,"regions":"1,4,17","windows":32,"forks":128,"explored":40,"memo_hits":88,"steps":5000,"violations":1,"viols":"70|12p,3c|corrupt.4294967291"}"#;

pub(super) const STATE: &str = r#"{"kind":"memo_state","run_key":11400714819323198485,"upto":96,"state":16045690984503111693,"outcome":"corrupt.2147483648"}"#;

pub(super) const DROP: &str = r#"{"kind":"memo_drop","run_key":11400714819323198485}"#;

pub(super) const RUN_KEY: u64 = 0x9E37_79B9_7F4A_7C15;

fn records() -> [(&'static str, MemoLine); 2] {
    [
        (
            META,
            MemoLine::Meta {
                name: "fig \"β\"\tcheck".to_string(),
                fingerprint: 0xFEDC_BA98_7654_3210,
                generation: 3,
            },
        ),
        (
            SLAB,
            MemoLine::Slab {
                run_key: RUN_KEY,
                rec: SlabRecord {
                    start: 64,
                    end: 128,
                    done: 96,
                    golden: 4096,
                    program_fp: 0x1111_1111_1111_1111,
                    rfp: 0x2222_2222_2222_2222,
                    regions: BTreeSet::from([1, 4, 17]),
                    stats: CheckStats {
                        windows: 32,
                        forks: 128,
                        explored: 40,
                        memo_hits: 88,
                        steps: 5000,
                        violations: 1,
                    },
                    violations: vec![JournaledViolation {
                        window: 70,
                        schedule: vec![
                            PlannedInjection {
                                after_steps: 12,
                                kind: InjectionKind::PowerFailure,
                            },
                            PlannedInjection {
                                after_steps: 3,
                                kind: InjectionKind::SpoofedCheckpoint,
                            },
                        ],
                        outcome: Outcome::Corrupt { got: -5 },
                    }],
                },
            },
        ),
    ]
}

#[test]
fn encoder_writes_the_golden_bytes() {
    for (golden, record) in records() {
        assert_eq!(encode_memo_line(&record), golden);
    }
}

#[test]
fn golden_lines_decode_to_the_expected_records() {
    for (golden, record) in records() {
        assert_eq!(decode_memo_text(golden), Some(Ok(Some(record))));
    }
}

#[test]
fn retired_lines_decode_as_retired() {
    let partial = SLAB.replace(r#""done":96"#, r#""done":63"#);
    for line in [STATE, DROP, &partial] {
        assert_eq!(decode_memo_text(line), Some(Ok(None)), "{line}");
    }
}
