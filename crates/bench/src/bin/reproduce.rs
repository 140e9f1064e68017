//! `reproduce [NAME…]` — regenerates the recorded results: every experiment
//! with no arguments, else the named ones (see the table in the
//! `plwg-bench` crate docs). Each writes `results/<name>.txt`, the two
//! sweeps also their `BENCH_*.json`, all relative to the working directory.
//! An experiment whose paper claim fails, or whose file cannot be written,
//! makes the exit status non-zero; the others still run.
//!
//! Each experiment runs alone on a fresh thread, so none inherits another's
//! thread-local state (the wire codec's encode scratch buffer, for one,
//! whose growth would show in the scale sweep's live-heap count).

use plwg_bench::{write_json_rows, Experiment, EXPERIMENTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks live heap bytes (allocated minus freed) so the scale sweep can
/// report steady-state memory per LWG. Relaxed atomic adds are exact, and
/// while an experiment runs only its thread allocates, so the counts are
/// deterministic because the simulation is.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed) - FREED_BYTES.load(Ordering::Relaxed)
}

/// Runs `e` on its own thread and writes its files. `Err` says why not.
fn reproduce(e: &Experiment) -> Result<(), String> {
    let run = e.run;
    let out = std::thread::Builder::new()
        .name(e.name.to_owned())
        .spawn(move || run(live_bytes))
        .map_err(|err| format!("cannot start: {err}"))?
        .join()
        .map_err(|_| "panicked".to_owned())?;
    let txt = format!("results/{}.txt", e.name);
    std::fs::write(&txt, &out.text).map_err(|err| format!("cannot write {txt}: {err}"))?;
    eprintln!("wrote {txt}");
    if let Some(json) = e.json {
        write_json_rows(json, e.name, &out.rows)
            .map_err(|err| format!("cannot write {json}: {err}"))?;
        eprintln!("wrote {json}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<&Experiment> = if names.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        let find = |n: &String| EXPERIMENTS.iter().find(|e| e.name == n);
        match names.iter().map(|n| find(n).ok_or(n)).collect() {
            Ok(chosen) => chosen,
            Err(unknown) => {
                let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                eprintln!(
                    "reproduce: no experiment {unknown:?}\nusage: reproduce [NAME…]; names: {}",
                    all.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    };
    let mut failed = Vec::new();
    for e in chosen {
        if let Err(why) = reproduce(e) {
            eprintln!("reproduce: {}: {why}", e.name);
            failed.push(e.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("reproduce: failed: {}", failed.join(" "));
        ExitCode::FAILURE
    }
}
