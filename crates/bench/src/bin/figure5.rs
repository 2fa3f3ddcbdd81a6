//! Regenerates **Figure 5** of the paper: execution time and resources of
//! the mapping-aware circuits, normalized to the mapping-agnostic baseline
//! (dashed line = 1.0). Rendered as an ASCII bar chart plus the raw series.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin figure5 -- [--jobs N]
//! ```

use frequenz_bench::{jobs_from_args, run_table1_jobs};
use frequenz_core::FlowOptions;

fn bar(ratio: f64) -> String {
    // 40 columns represent 0.0 .. 1.4; the baseline (1.0) sits at col 29.
    let cols = 40usize;
    let pos = ((ratio / 1.4) * cols as f64)
        .round()
        .clamp(0.0, cols as f64) as usize;
    let baseline = ((1.0 / 1.4) * cols as f64).round() as usize;
    let mut s: Vec<char> = std::iter::repeat_n(' ', cols).collect();
    for c in s.iter_mut().take(pos) {
        *c = '█';
    }
    if baseline < cols {
        s[baseline] = '|';
    }
    s.into_iter().collect()
}

fn main() -> Result<(), frequenz_bench::CompareError> {
    let opts = FlowOptions::default();
    let rows = run_table1_jobs(&opts, jobs_from_args()?)?;
    println!("\nFigure 5 reproduction — Iter. normalized to Prev. (| marks 1.0):\n");
    println!(
        "{:<15} {:>7}  0.0 ......................... 1.0 .....",
        "", "ET"
    );
    for r in &rows {
        let et = r.iter.exec_time_ns / r.prev.exec_time_ns;
        let lut = r.iter.luts as f64 / r.prev.luts as f64;
        let ff = r.iter.ffs as f64 / r.prev.ffs as f64;
        println!("{:<15} {:>6.2}x  {}", r.name, et, bar(et));
        println!("{:<15} {:>6.2}x  {}", "  LUTs", lut, bar(lut));
        println!("{:<15} {:>6.2}x  {}", "  FFs", ff, bar(ff));
    }
    println!("\nraw series (name, et_ratio, lut_ratio, ff_ratio):");
    for r in &rows {
        println!(
            "{},{:.4},{:.4},{:.4}",
            r.name,
            r.iter.exec_time_ns / r.prev.exec_time_ns,
            r.iter.luts as f64 / r.prev.luts as f64,
            r.iter.ffs as f64 / r.prev.ffs as f64
        );
    }
    let pareto = rows
        .iter()
        .filter(|r| r.et_ratio() <= 0.0 && r.lut_ratio() <= 0.05 && r.ff_ratio() <= 0.05)
        .count();
    println!(
        "\n{pareto}/{} circuits Pareto-dominate or match the baseline",
        rows.len()
    );
    Ok(())
}
