//! Shared output helpers for the figure-regeneration binaries, plus the
//! counting global allocator used by the allocation-regression suite and
//! (behind the `count-allocs` feature) the perf emitter.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper and prints it as an aligned ASCII table plus, where useful, a
//! crude bar rendering so the *shape* can be eyeballed against the
//! original figure.

pub mod alloc_counter;
pub mod bench_json;

/// Bad command-line input: prints `message` as one line and exits 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Takes the value following `flag`; a missing value (or another flag
/// in its place) is a [`usage_error`].
pub fn take_value(args: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    match args.next() {
        Some(value) if !value.starts_with("--") => value.clone(),
        _ => usage_error(&format!("{flag} needs a value")),
    }
}

/// Parses `value` as a count of at least one for `flag`; zero or a
/// non-number is a [`usage_error`].
pub fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse() {
        Ok(0) => usage_error(&format!("{flag} must be at least 1")),
        Ok(n) => n,
        Err(e) => usage_error(&format!("{flag}: {e}")),
    }
}

/// Parses a `--seed` value: decimal by default, hex only behind an
/// explicit `0x` prefix — otherwise every digits-only decimal seed would
/// silently parse as hex.
///
/// # Errors
///
/// A one-line message naming the flag and the parse failure.
pub fn parse_seed(value: &str) -> Result<u64, String> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    }
    .map_err(|e| format!("--seed (decimal, or hex with 0x prefix): {e}"))
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints one labelled row of values with a fixed label width.
pub fn row(label: &str, values: &[(String, f64)]) {
    print!("  {label:<26}");
    for (name, v) in values {
        print!(" {name}={v:<8.3}");
    }
    println!();
}

/// Renders a horizontal bar scaled to `max` over `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(n)
}

/// Prints a labelled bar line.
pub fn bar_row(label: &str, value: f64, max: f64) {
    println!("  {label:<26} {value:8.3} |{}", bar(value, max, 40));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).len(), 5);
        assert_eq!(bar(10.0, 10.0, 10).len(), 10);
        assert_eq!(bar(0.0, 10.0, 10).len(), 0);
        assert_eq!(bar(1.0, 0.0, 10).len(), 0);
    }

    #[test]
    fn seeds_parse_decimal_or_prefixed_hex() {
        assert_eq!(parse_seed("10"), Ok(10));
        assert_eq!(parse_seed("0x10"), Ok(16));
        assert_eq!(parse_seed("0X1f"), Ok(31));
        assert!(parse_seed("0x").is_err());
        assert!(parse_seed("1f").is_err());
    }

    #[test]
    fn bar_clamps_overflow() {
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
    }
}
