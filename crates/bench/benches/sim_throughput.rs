//! Micro-benchmark of the co-simulator's instruction throughput (best-of-N
//! wall-clock timing; no external harness), comparing the default
//! predecoded fast path against the interpreted step-exact reference.

use gecko_bench::{print_table, time_best_of};
use gecko_sim::{ExecMode, SchemeKind, SimConfig, Simulator};

fn main() {
    let app = gecko_apps::app_by_name("crc32").unwrap();
    let iters = 10;
    // 10 ms of device time at 16 MHz ≈ 160k cycles per iteration.
    let cycles = 160_000.0;
    let mut table = Vec::new();
    for scheme in SchemeKind::all() {
        let run = |mode: ExecMode| {
            let app = &app;
            move || {
                let mut sim = Simulator::new(app, SimConfig::bench_supply(scheme)).unwrap();
                sim.set_exec_mode(mode);
                sim.run_for(0.01)
            }
        };
        let pre = time_best_of(iters, run(ExecMode::Predecoded));
        let int = time_best_of(iters, run(ExecMode::Interpreted));
        let mcps = cycles / pre.as_secs_f64() / 1e6;
        table.push(vec![
            scheme.name().to_string(),
            format!("{:.2}ms", pre.as_secs_f64() * 1e3),
            format!("{:.2}ms", int.as_secs_f64() * 1e3),
            format!("{mcps:.0} Mcycles/s"),
            format!("{:.2}x", int.as_secs_f64() / pre.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("simulator throughput (best of {iters}, includes compile)"),
        &[
            "scheme",
            "predecoded",
            "exact reference",
            "throughput",
            "speedup",
        ],
        &table,
    );
}
