//! CI gate over the checked-in zero-copy refactor baselines
//! (`results/throughput_guard_{before,after}.json`).
//!
//! The two files were recorded with the same harness on the same machine,
//! immediately before and after the `Frame` refactor. The gate enforces
//! the dimensions of the comparison that are machine-independent:
//!
//! * **determinism** — `delivered` and `hwg_data_multicasts` must be
//!   identical per cell (the refactor must not change protocol behavior);
//! * **allocator traffic** — `allocs_per_delivered` after must be within
//!   +5% of before in every cell (in fact it dropped in all of them);
//!
//! and *reports* the wall-clock deltas the files record. Wall-clock is
//! not re-gated across machines — CI runners differ — but the recorded
//! deltas are printed so a regression in the checked-in baselines is
//! visible in the job log. Exits non-zero when a gate fails.

use plwg_workload::{json_field, json_row_lines};
use std::process::ExitCode;

/// The gated slice of one sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    payload_bytes: u64,
    groups: u64,
    delivered: u64,
    hwg_data_multicasts: u64,
    wall_ms: f64,
    allocs_per_delivered: f64,
}

fn parse(path: &str) -> Result<Vec<Cell>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut cells = Vec::new();
    for line in json_row_lines(&text) {
        let get = |key: &str| {
            json_field(line, key).ok_or_else(|| format!("{path}: row missing \"{key}\": {line}"))
        };
        cells.push(Cell {
            payload_bytes: get("payload_bytes")? as u64,
            groups: get("groups")? as u64,
            delivered: get("delivered")? as u64,
            hwg_data_multicasts: get("hwg_data_multicasts")? as u64,
            wall_ms: get("wall_ms")?,
            allocs_per_delivered: get("allocs_per_delivered")?,
        });
    }
    if cells.is_empty() {
        return Err(format!("{path}: no rows found"));
    }
    Ok(cells)
}

fn run() -> Result<(), String> {
    let before = parse("results/throughput_guard_before.json")?;
    let after = parse("results/throughput_guard_after.json")?;
    if before.len() != after.len() {
        return Err(format!(
            "row count mismatch: {} before vs {} after",
            before.len(),
            after.len()
        ));
    }

    let mut failures = Vec::new();
    println!(
        "{:>8} {:>6} | {:>9} {:>10} | {:>8} {:>8} {:>7} | {:>7} {:>7}",
        "payload",
        "groups",
        "delivered",
        "multicasts",
        "wall(b)",
        "wall(a)",
        "delta",
        "a/d(b)",
        "a/d(a)"
    );
    for (b, a) in before.iter().zip(&after) {
        if (b.payload_bytes, b.groups) != (a.payload_bytes, a.groups) {
            return Err(format!(
                "cell order mismatch: before {}B/G{} vs after {}B/G{}",
                b.payload_bytes, b.groups, a.payload_bytes, a.groups
            ));
        }
        let cell = format!("{}B/G{}", b.payload_bytes, b.groups);
        if b.delivered != a.delivered || b.hwg_data_multicasts != a.hwg_data_multicasts {
            failures.push(format!(
                "{cell}: deterministic counters changed (delivered {} -> {}, multicasts {} -> {})",
                b.delivered, a.delivered, b.hwg_data_multicasts, a.hwg_data_multicasts
            ));
        }
        // The ±5% gate on the machine-independent metric.
        if a.allocs_per_delivered > b.allocs_per_delivered * 1.05 {
            failures.push(format!(
                "{cell}: allocs/delivered regressed past +5%: {} -> {}",
                b.allocs_per_delivered, a.allocs_per_delivered
            ));
        }
        let delta = (a.wall_ms - b.wall_ms) / b.wall_ms * 100.0;
        println!(
            "{:>8} {:>6} | {:>9} {:>10} | {:>8.1} {:>8.1} {:>+6.0}% | {:>7.1} {:>7.1}",
            format!("{}B", b.payload_bytes),
            b.groups,
            b.delivered,
            b.hwg_data_multicasts,
            b.wall_ms,
            a.wall_ms,
            delta,
            b.allocs_per_delivered,
            a.allocs_per_delivered,
        );
    }

    if failures.is_empty() {
        println!("\nthroughput guard: ok (counters identical, allocs/delivered within gate)");
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("throughput guard FAILED:\n{e}");
            ExitCode::FAILURE
        }
    }
}
