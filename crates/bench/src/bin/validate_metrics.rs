//! Schema validator for the Prometheus text exposition served by the
//! `METRICS` wire verb. Used by CI against a live server:
//!
//! ```text
//! cargo run -p pygb-bench --bin validate_metrics -- 127.0.0.1:7411
//! ```
//!
//! The single argument is either `host:port` (scrape `METRICS` over
//! `pygb-wire/1`) or a path to a file holding an exposition.
//!
//! Checks, exiting 1 with a diagnostic on the first violation:
//!
//! * every line is a `# TYPE`/`# HELP` comment or a sample
//!   `name[{labels}] value` with a well-formed metric name, label
//!   syntax, and numeric value;
//! * every sample belongs to a family announced by a preceding
//!   `# TYPE`, and each family is announced exactly once;
//! * histogram families expose `_bucket` (with an `le` label),
//!   `_sum`, and `_count` samples; bucket counts are cumulative
//!   (non-decreasing in `le` order), an `le="+Inf"` bucket exists,
//!   and it equals the series' `_count`;
//! * the scrape carries live serve data: at least one `pygb_serve_`
//!   family, the mirrored `pygb_tunables_slow_ns` threshold, and the
//!   four `pygb_views_*` operand-view counters (a server that answered
//!   a mixed-dtype query has converted an operand).

use std::collections::BTreeMap;

fn fail(msg: &str) -> ! {
    eprintln!("validate_metrics: FAIL: {msg}");
    std::process::exit(1);
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split `name{labels}` into the name and its label pairs, validating
/// the `key="value"` syntax (values may escape `\\`, `\"`, `\n`).
fn parse_series(series: &str, line: &str) -> (String, Vec<(String, String)>) {
    let Some(brace) = series.find('{') else {
        return (series.to_string(), Vec::new());
    };
    let name = &series[..brace];
    let rest = &series[brace + 1..];
    let Some(body) = rest.strip_suffix('}') else {
        fail(&format!("unterminated label set in `{line}`"));
    };
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            fail(&format!("bad label syntax in `{line}`"));
        }
        if !valid_name(&key) {
            fail(&format!("bad label key `{key}` in `{line}`"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some(e @ ('\\' | '"' | 'n')) => {
                        value.push('\\');
                        value.push(e);
                    }
                    _ => fail(&format!("bad escape in label value in `{line}`")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => fail(&format!("unterminated label value in `{line}`")),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => fail(&format!("unexpected `{c}` after label value in `{line}`")),
        }
    }
    (name.to_string(), labels)
}

fn scrape(addr: &str) -> String {
    let mut c = pygb_serve::Client::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    c.hello("validate-metrics")
        .unwrap_or_else(|e| fail(&format!("HELLO failed: {e}")));
    c.request_ok("METRICS")
        .unwrap_or_else(|e| fail(&format!("METRICS failed: {e}")))
}

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: validate_metrics <host:port | exposition-file>"));
    let text = if arg.contains(':') && !std::path::Path::new(&arg).exists() {
        scrape(&arg)
    } else {
        std::fs::read_to_string(&arg).unwrap_or_else(|e| fail(&format!("cannot read {arg}: {e}")))
    };

    // family name -> declared type
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    // (histogram family, non-le labels) -> [(le, count)] in file order
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(String, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut sums: BTreeMap<SeriesKey, bool> = BTreeMap::new();
    let mut samples = 0usize;

    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let toks: Vec<&str> = comment.split_whitespace().collect();
            match toks.as_slice() {
                ["TYPE", name, kind @ ("counter" | "gauge" | "histogram")] => {
                    if !valid_name(name) {
                        fail(&format!("bad family name in `{line}`"));
                    }
                    if families
                        .insert(name.to_string(), kind.to_string())
                        .is_some()
                    {
                        fail(&format!("family `{name}` announced twice"));
                    }
                }
                ["TYPE", ..] => fail(&format!("malformed TYPE line `{line}`")),
                ["HELP", ..] => {}
                _ => fail(&format!("unknown comment `{line}`")),
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            fail(&format!("sample line without a value: `{line}`"));
        };
        let value: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value
                .parse()
                .unwrap_or_else(|_| fail(&format!("non-numeric value in `{line}`")))
        };
        let (name, labels) = parse_series(series, line);
        if !valid_name(&name) {
            fail(&format!("bad metric name `{name}` in `{line}`"));
        }
        samples += 1;

        // Resolve the family: histogram samples use suffixed names.
        let (family, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                name.strip_suffix(s)
                    .filter(|f| families.get(*f).is_some_and(|k| k == "histogram"))
                    .map(|f| (f.to_string(), *s))
            })
            .unwrap_or_else(|| (name.clone(), ""));
        let Some(kind) = families.get(&family) else {
            fail(&format!("sample `{name}` precedes or lacks its TYPE line"));
        };
        if kind == "histogram" && suffix.is_empty() {
            fail(&format!("bare sample `{name}` in histogram family"));
        }

        if kind == "histogram" {
            let mut rest: Vec<(String, String)> = Vec::new();
            let mut le = None;
            for (k, v) in labels {
                if k == "le" {
                    le = Some(v);
                } else {
                    rest.push((k, v));
                }
            }
            let key = (family.clone(), rest);
            match suffix {
                "_bucket" => {
                    let le = le.unwrap_or_else(|| fail(&format!("`{line}` lacks the `le` label")));
                    buckets.entry(key).or_default().push((le, value));
                }
                "_count" => {
                    counts.insert(key, value);
                }
                "_sum" => {
                    sums.insert(key, true);
                }
                _ => unreachable!(),
            }
        }
    }

    if samples == 0 {
        fail("exposition holds no samples");
    }
    for ((family, labels), series) in &buckets {
        let ctx = format!("{family}{labels:?}");
        let mut prev = f64::NEG_INFINITY;
        for (le, _count) in series {
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse()
                    .unwrap_or_else(|_| fail(&format!("bad le `{le}` in {ctx}")))
            };
            if bound <= prev {
                fail(&format!("le bounds not increasing in {ctx}"));
            }
            prev = bound;
        }
        if series.windows(2).any(|w| w[1].1 < w[0].1) {
            fail(&format!("bucket counts not cumulative in {ctx}"));
        }
        let Some(inf) = series.iter().find(|(le, _)| le == "+Inf") else {
            fail(&format!("no +Inf bucket in {ctx}"));
        };
        let key = (family.clone(), labels.clone());
        let Some(count) = counts.get(&key) else {
            fail(&format!("histogram {ctx} lacks a _count sample"));
        };
        if (inf.1 - count).abs() > f64::EPSILON {
            fail(&format!(
                "+Inf bucket ({}) != _count ({count}) in {ctx}",
                inf.1
            ));
        }
        if !sums.contains_key(&key) {
            fail(&format!("histogram {ctx} lacks a _sum sample"));
        }
    }
    for (key, _) in counts {
        if !buckets.contains_key(&key) {
            fail(&format!("histogram {key:?} has _count but no buckets"));
        }
    }

    if !families.keys().any(|f| f.starts_with("pygb_serve_")) {
        fail("no pygb_serve_* family — scrape did not hit a serving process");
    }
    if !families.contains_key("pygb_tunables_slow_ns") {
        fail("pygb_tunables_slow_ns missing — the slow threshold is not mirrored");
    }
    for view in ["cast_built", "cast_hit"] {
        let family = format!("pygb_views_{view}");
        if families.get(&family).map(String::as_str) != Some("counter") {
            fail(&format!(
                "counter {family} missing — no operand view was ever requested"
            ));
        }
    }

    println!(
        "validate_metrics: OK: {samples} samples across {} families \
         ({} histogram series checked)",
        families.len(),
        buckets.len()
    );
}
