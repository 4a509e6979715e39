//! Experiment harness regenerating every table and figure of the AARC
//! paper's evaluation (§IV).
//!
//! Each module corresponds to one figure or table and produces plain data
//! structures that the `experiments` binary prints as text tables and the
//! Criterion benches time. See DESIGN.md for the experiment ↔ module map and
//! EXPERIMENTS.md for the measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig2_decoupling;
pub mod fig3_bo_motivation;
pub mod fig5_search_efficiency;
pub mod fig8_input_aware;
pub mod table2_optimal;

/// The names, in the [`aarc_baselines::methods`] registry, of the three
/// methods the paper's figures compare, in figure order. Result rows are
/// labelled with each method's
/// [`ConfigurationSearch::name`](aarc_core::ConfigurationSearch::name)
/// ("AARC", "BO", "MAFF").
pub const FIGURE_METHODS: [&str; 3] = ["aarc", "bo", "maff"];

/// Formats a floating-point number with thousands separators for table
/// output (e.g. `1234567.8` → `"1,234,567.8"`).
pub fn fmt_thousands(value: f64) -> String {
    let negative = value < 0.0;
    let rounded = (value.abs() * 10.0).round() / 10.0;
    let int_part = rounded.trunc() as u64;
    let frac = ((rounded - rounded.trunc()) * 10.0).round() as u64;
    let digits = int_part.to_string();
    let mut grouped = String::new();
    for (i, c) in digits.chars().rev().enumerate() {
        if i > 0 && i % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(c);
    }
    let grouped: String = grouped.chars().rev().collect();
    let sign = if negative { "-" } else { "" };
    format!("{sign}{grouped}.{frac}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(0.0), "0.0");
        assert_eq!(fmt_thousands(12.34), "12.3");
        assert_eq!(fmt_thousands(1_234.0), "1,234.0");
        assert_eq!(fmt_thousands(1_234_567.89), "1,234,567.9");
        assert_eq!(fmt_thousands(-9_876.5), "-9,876.5");
    }
}
