//! Regenerates **Table I** of the paper: the nine kernels measured under
//! the mapping-agnostic baseline ("Prev.") and the iterative mapping-aware
//! flow ("Iter.") — CP, clock cycles, execution time, LUTs, FFs, logic
//! levels, and the improvement ratios.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin table1 -- [--jobs N] [--json FILE]
//! ```
//!
//! Kernels run in parallel (`--jobs`, default: all cores); `--json FILE`
//! additionally writes per-kernel wall-clock and cache statistics.

use frequenz_bench::{comparisons_to_json, jobs_from_args, run_table1_jobs};
use frequenz_core::FlowOptions;

fn json_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--json" {
            return Some(
                args.get(i + 1)
                    .cloned()
                    .unwrap_or("BENCH_table1.json".into()),
            );
        }
        if let Some(p) = a.strip_prefix("--json=") {
            return Some(p.to_string());
        }
    }
    None
}

fn main() -> Result<(), frequenz_bench::CompareError> {
    let jobs = jobs_from_args()?;
    // One knob drives both pools: kernels compare in parallel *and* each
    // flow's synthesis/slack lanes use the same worker width. Results are
    // bit-identical at any job count, so this only trades wall clock.
    let opts = FlowOptions {
        jobs,
        ..FlowOptions::default()
    };
    println!(
        "Table I reproduction — target {} logic levels (CP ≈ {:.1} ns), K = {}, {jobs} jobs",
        opts.target_levels,
        opts.target_levels as f64 * dataflow::LOGIC_LEVEL_DELAY_NS,
        opts.k
    );
    let t0 = std::time::Instant::now();
    let rows = run_table1_jobs(&opts, jobs)?;
    let total_wall = t0.elapsed().as_secs_f64();
    println!("\nsummary ({} kernels, {total_wall:.1} s):", rows.len());
    let improved_et = rows.iter().filter(|r| r.et_ratio() < 0.0).count();
    let improved_lut = rows.iter().filter(|r| r.lut_ratio() <= 0.0).count();
    let improved_ff = rows.iter().filter(|r| r.ff_ratio() <= 0.0).count();
    let meets = rows
        .iter()
        .filter(|r| r.iter.logic_levels <= opts.target_levels)
        .count();
    println!(
        "  iterative meets the level target on {meets}/{} kernels",
        rows.len()
    );
    println!(
        "  execution time improved on {improved_et}/{} kernels",
        rows.len()
    );
    println!(
        "  LUTs improved on {improved_lut}/{}, FFs on {improved_ff}/{}",
        rows.len(),
        rows.len()
    );
    let best_et = rows
        .iter()
        .map(|r| r.et_ratio())
        .fold(f64::INFINITY, f64::min);
    println!(
        "  best execution-time reduction: {:.0}% (paper: up to -29%)",
        100.0 * best_et
    );
    println!("\nper-kernel flow instrumentation (Iter.):");
    for r in &rows {
        println!(
            "  {:<15} wall {:>6.1} s | {} | comparison cache {}/{} ({:.0}%)",
            r.name,
            r.wall_s,
            r.iter_trace,
            r.cache_hits,
            r.cache_hits + r.cache_misses,
            100.0 * r.cache_hit_rate()
        );
    }

    // The baseline flow plus the out-of-flow verification/measurement sims
    // account for the rest of each kernel's comparison wall clock.
    println!("\nper-kernel flow instrumentation (Prev.):");
    for r in &rows {
        println!(
            "  {:<15} meas sim {:>5.2} s ({} runs, {} cycles) | {}",
            r.name,
            r.meas_sim.time.as_secs_f64(),
            r.meas_sim.runs,
            r.meas_sim.cycles,
            r.prev_trace,
        );
    }

    // Figure 5 companion series (Iter normalized to Prev).
    println!("\nFigure 5 series (name, ET ratio, LUT ratio, FF ratio):");
    for r in &rows {
        println!(
            "  {:<15} {:>6.3} {:>6.3} {:>6.3}",
            r.name,
            r.iter.exec_time_ns / r.prev.exec_time_ns,
            r.iter.luts as f64 / r.prev.luts as f64,
            r.iter.ffs as f64 / r.prev.ffs as f64
        );
    }

    if let Some(path) = json_path() {
        std::fs::write(&path, comparisons_to_json(&rows, total_wall, jobs))?;
        eprintln!("[table1] wrote {path}");
    }
    Ok(())
}
