//! Figure 5: remote EMI attack on ADC-monitored boards — forward progress
//! rate vs. attack frequency, 5–500 MHz sweep at 35 dBm from 5 m. The
//! sweep runs on the campaign engine (`gecko_fleet::figures::fig5`).

/// One remote-attack measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Board name.
    pub device: String,
    /// Attack frequency (Hz).
    pub freq_hz: f64,
    /// Forward progress rate `R` in 0..=1.
    pub rate: f64,
}

crate::impl_record!(Fig5Row {
    device,
    freq_hz,
    rate
});

/// Transmit power used by the remote sweep (dBm).
pub const POWER_DBM: f64 = 35.0;
/// Attack distance (m).
pub const DISTANCE_M: f64 = 5.0;
