//! Figure 13: attack detection and recovery over time — six attack
//! scenarios, throughput timelines for NVP, Ratchet and GECKO in the
//! energy-harvesting environment.
//!
//! Time compression: one paper-minute is simulated as one second (the
//! detection/recovery dynamics happen at millisecond scale, so the 45-
//! minute wall experiments compress without changing the story). Bucket
//! throughput is normalized to the unattacked NVP rate, as in the paper.
//! The timelines run on the campaign engine (`gecko_fleet::figures::fig13`).

/// Paper-minutes compressed into one simulated second.
pub const MINUTES_PER_SIM_SECOND: f64 = 1.0;

/// One timeline bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13Row {
    /// Scenario label ("a".."f").
    pub scenario: String,
    /// Scheme name.
    pub scheme: String,
    /// Bucket start, in compressed "paper minutes".
    pub t_min: f64,
    /// Whether the attack is active during the bucket.
    pub under_attack: bool,
    /// Completions in this bucket / baseline completions per bucket.
    pub throughput_pct: f64,
}

crate::impl_record!(Fig13Row {
    scenario,
    scheme,
    t_min,
    under_attack,
    throughput_pct
});

/// The six attack scenarios: burst start times in paper-minutes.
pub fn scenarios() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("a", vec![]),
        ("b", vec![40.0]),
        ("c", vec![30.0]),
        ("d", vec![20.0, 40.0]),
        ("e", vec![15.0, 30.0, 35.0]),
        ("f", vec![10.0, 25.0, 40.0]),
    ]
}
