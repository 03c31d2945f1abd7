//! Sample summaries and the metric table a run prints.

use std::collections::BTreeMap;

/// Nearest-rank quantile of `sorted` (ascending); 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` and returns it (for quantile calls).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `v` (nearest rank); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` in `unit`, replacing any earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.insert(name.to_string(), (value, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|(v, _)| *v)
    }

    /// The unit recorded under `name`.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries.get(name).map(|(_, u)| *u)
    }

    /// All names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .entries
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.set("b", 1.5, "ms");
        m.set("a", 2.0, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 2.0, \"unit\": \"s\"}, \"b\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
