//! Figure 8: attack distance vs. transmit power — forward progress rate of
//! the victim within a 5-meter attack range at the resonant frequency. The
//! grid runs on the campaign engine (`gecko_fleet::figures::fig8`).

/// One distance/power measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Antenna-to-victim distance (m).
    pub distance_m: f64,
    /// Transmit power (dBm).
    pub power_dbm: f64,
    /// Forward progress rate `R` in 0..=1.
    pub rate: f64,
}

crate::impl_record!(Fig8Row {
    distance_m,
    power_dbm,
    rate
});
