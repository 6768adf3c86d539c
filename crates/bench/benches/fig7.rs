//! Regenerates Figure 7: remote attacks on comparator-based monitors.

use gecko_bench::{fidelity_from_env, mhz, pct, print_table, save_rows, workers_from_env};

fn main() {
    let rows =
        gecko_fleet::figures::fig7(fidelity_from_env(), workers_from_env()).expect("fig7 campaign");
    save_rows("fig7", &rows);
    let devices: std::collections::BTreeSet<_> = rows.iter().map(|r| r.device.clone()).collect();
    for d in &devices {
        let table = rows
            .iter()
            .filter(|r| &r.device == d)
            .map(|r| vec![mhz(r.freq_hz), pct(r.rate)])
            .collect::<Vec<_>>();
        print_table(
            &format!("Fig. 7 ({d}, comparator monitor): forward progress vs frequency"),
            &["freq", "R"],
            &table,
        );
    }
}
