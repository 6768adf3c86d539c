#!/usr/bin/env bash
# The tier-1 gate: formatting, lints, an offline release build, and the
# test suite. CI runs exactly this script; run it locally before pushing.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # skip clippy (useful while iterating)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

if [[ $fast -eq 0 ]]; then
  echo "==> cargo clippy (workspace, all targets, warnings are errors)"
  cargo clippy --offline --workspace --all-targets -- -D warnings
fi

echo "==> cargo build --release (offline)"
cargo build --offline --workspace --release

echo "==> cargo doc (offline, no deps; missing_docs is deny on sim/fleet/checker)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> cargo test (offline, quick sweeps)"
GECKO_QUICK=1 cargo test --offline --workspace -q

echo "==> checker smoke (exhaustive model check, capped windows)"
GECKO_QUICK=1 cargo run --offline --release --example check

echo "==> join differential (every drain join and every wake-up sweep join of the full"
echo "    30-window benchmark grid also runs the plain run it skips and must match it;"
echo "    the tier-1 suite runs 10 windows)"
cargo test --offline --release -q -p gecko-check --lib -- --ignored --nocapture

echo "==> chaos smoke (supervised campaigns: quarantine, budgets, kill + resume — sweeps from"
echo "    their run journal, checks from their memo store)"
cargo test --offline --release -q -p gecko-fleet --test supervision
cargo test --offline --release -q -p gecko-check --test supervision
cargo run --offline --release --example campaign -- --chaos --resume --drain --prune

echo "==> batch smoke (DeviceBatch lock-step runs must equal scalar runs bit-for-bit)"
GECKO_QUICK=1 cargo test --offline --release -q -p gecko-sim --test batch

echo "==> store smoke (segmented store: stateless budgeted compaction, kill-mid-prune resume digests)"
cargo test --offline --release -q -p gecko-store
cargo test --offline --release -q -p gecko-fleet --test prune

echo "==> serve smoke (daemon on an ephemeral port: submit fig4 sweep over HTTP,"
echo "    poll to completion, served result must be byte-identical to the library;"
echo "    the finished job directory holds only journal/, a log ending on its result line)"
cargo run --offline --release --example serve -- --smoke
cargo test --offline --release -q -p gecko-serve --test e2e

echo "==> fault smoke (EM instruction faults: bit-identical fault-free paths,"
echo "    skip+refailure breaks Ratchet while GECKO verifies clean, fleet fault axis)"
GECKO_QUICK=1 cargo test --offline --release -q -p gecko-sim --test faults
GECKO_QUICK=1 cargo test --offline --release -q -p gecko-check --test faults
GECKO_QUICK=1 cargo test --offline --release -q -p gecko-fleet --test faults
cargo run --offline --release --example fault_lab

echo "==> incremental smoke (persistent memo store: the one record per checked chunk, which warm"
echo "    re-checks and kill-resume both restore from; byte-identical even with quarantined"
echo "    chunks, worker-count and kill-resume digest-invariant, change-driven invalidation)"
GECKO_QUICK=1 cargo test --offline --release -q -p gecko-check --test incremental

echo "==> benchmark self-test (the served end-to-end benchmark builds and its unit tests pass"
echo "    against the current crates; --locked fails if its committed lockfile would change)"
cargo test --offline --release -q --locked --manifest-path crates/bench/src/bin/gecko-e2e/Cargo.toml

echo "==> bench smoke (fast-path + event-horizon clean/disturbed + batch_step coalescing floors, BENCH_sim.json)"
GECKO_QUICK=1 cargo bench --offline -p gecko-bench --bench fast_path

echo "==> checker fork bench (snapshot-fork >= 5x cheaper than cold restart in steps,"
echo "    page-tracked forks move >= 32x fewer NVM words than full-image forks)"
GECKO_QUICK=1 cargo bench --offline -p gecko-bench --bench checker_fork

echo "==> OK"
echo "(info) non-test lines under crates/ (scripts/loc.sh): $(scripts/loc.sh)"
