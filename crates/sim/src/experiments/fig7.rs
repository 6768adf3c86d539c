//! Figure 7: remote EMI attack on the comparator-monitored boards
//! (MSP430FR5994 and FR6989) — forward progress rate vs. frequency.
//! The comparator, being continuous-time, collapses far harder than the
//! sampled ADC at its resonance (Table I's `Comp-R_min ≈ 10⁻²%`). The
//! sweep runs on the campaign engine (`gecko_fleet::figures::fig7`).

use super::fig5::Fig5Row;

/// Row type shared with Figure 5.
pub type Fig7Row = Fig5Row;
