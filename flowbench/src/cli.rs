//! Strict command-line parsing: every malformed or unknown argument is an
//! error, never a silent default.

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of the names passed to [`parse`]).
    pub workload: String,
    /// Seed; permutes the order the workload's kernels run in.
    pub seed: u64,
    /// Seconds to measure for (at least one pass runs regardless).
    pub seconds: u64,
    /// Run the traced replay instead of the timed runs.
    pub trace: bool,
}

/// Usage text for error messages.
pub const USAGE: &str =
    "usage: flowbench --workload <name> --seed <u64> [--seconds <u64 >= 1>] [--trace <0|1>]";

/// Parses `args` (without the program name). `--workload` and `--seed` are
/// required; `--seconds` defaults to 10 and `--trace` to 0. Each flag takes
/// its value as the next argument and may appear once.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse(args: &[String], workloads: &[&str]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument `{other}`")),
        };
        if slot.is_some() {
            return Err(format!("`{flag}` given twice"));
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        *slot = Some(value.clone());
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if !workloads.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of: {})",
            workloads.join(", ")
        ));
    }
    let number = |flag: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("`{flag}` expects a non-negative integer, got `{v}`"))
    };
    let seed = number("--seed", &seed.ok_or("`--seed` is required")?)?;
    let seconds = match seconds {
        Some(v) => number("--seconds", &v)?,
        None => 10,
    };
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".into());
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("`--trace` expects 0 or 1, got `{v}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}
