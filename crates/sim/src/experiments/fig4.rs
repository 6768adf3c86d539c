//! Figure 4: direct power injection (DPI) on ADC-monitored boards —
//! forward progress rate vs. attack frequency, injection points P1 and P2,
//! 20 dBm, 1 MHz–1 GHz sweep. The sweep runs on the campaign engine
//! (`gecko_fleet::figures::fig4`).

/// One DPI measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Board name.
    pub device: String,
    /// Injection point ("P1" / "P2").
    pub point: String,
    /// Attack frequency (Hz).
    pub freq_hz: f64,
    /// Forward progress rate `R` in 0..=1.
    pub rate: f64,
}

crate::impl_record!(Fig4Row {
    device,
    point,
    freq_hz,
    rate
});
