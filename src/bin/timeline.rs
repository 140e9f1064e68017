//! Renders a causal protocol timeline for a packaged scenario.
//!
//! ```text
//! cargo run --bin timeline -- heal           # four-step heal procedure
//! cargo run --bin timeline -- heal --full    # every traced event
//! cargo run --bin timeline -- quickstart
//! ```

use plwg::obs::{scenarios::SCENARIOS, Timeline};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("heal");
    let Some(&(_, run)) = SCENARIOS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown scenario '{name}'; available: {}", names.join(", "));
        std::process::exit(2);
    };
    let timeline = Timeline::build(run().trace());
    println!(
        "scenario '{name}': {} traced events\n",
        timeline.entries().len()
    );
    if full {
        print!("{}", timeline.render());
        return;
    }
    if name == "heal" {
        println!("four-step heal procedure (paper §6), causally ordered:");
        for e in timeline.heal_procedure() {
            println!("{e}");
        }
    } else {
        // Without a procedure filter, show the LWG- and naming-layer
        // transitions (the HWG layer is chatty; use --full for all).
        for e in timeline.entries() {
            let layer = format!("{}", e.layer);
            if layer == "lwg" || layer == "naming" || layer == "world" {
                println!("{e}");
            }
        }
    }
}
