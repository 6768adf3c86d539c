//! # gecko-energy
//!
//! Energy-storage and energy-harvesting models for intermittent systems:
//! the capacitor that buffers harvested energy, the voltage-threshold ladder
//! that drives the just-in-time checkpoint protocol, and a family of
//! harvester power sources (constant supply, RF traces with periodic
//! outages, and a Powercast-like path-loss RF source).
//!
//! Physics is intentionally simple but dimensionally honest:
//! `E = ½·C·V²`, harvested power integrates into stored energy over time,
//! and the capacitor never exceeds its rated ceiling. Everything is `f64`
//! SI units (volts, farads, joules, watts, seconds), which the field names
//! spell out.
//!
//! ```
//! use gecko_energy::{Capacitor, VoltageThresholds};
//!
//! let th = VoltageThresholds::default();
//! let mut cap = Capacitor::new(1e-3, th.v_max); // 1 mF charged to the rail
//! let budget = cap.energy_above_j(th.v_off);
//! assert!(budget > 0.0);
//! // Drain half the budget: still above V_off.
//! cap.discharge_j(budget / 2.0);
//! assert!(cap.voltage_v() > th.v_off);
//! ```

pub mod capacitor;
pub mod harvester;
pub mod segment;
pub mod starve;
pub mod thresholds;

pub use capacitor::Capacitor;
pub use harvester::{ConstantPower, PowerSource, PowercastRf, PulsedRf, TracePower};
pub use segment::safe_steps;
pub use starve::StarvedHarvester;
pub use thresholds::VoltageThresholds;
