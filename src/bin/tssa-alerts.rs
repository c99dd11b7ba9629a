//! `tssa-alerts`: evaluate alert rules against a Prometheus scrape.
//!
//! ```text
//! tssa-alerts --exposition PATH [--rules PATH]
//! ```
//!
//! Evaluates the rules in `perf/alerts.toml` (or `--rules PATH`) against a
//! Prometheus text exposition (a `GET /metrics` scrape from
//! `tssa-serve-bin`). Each rule compares one metric's summed value against a
//! threshold; a metric absent from the scrape never fires (Prometheus "no
//! data" semantics). Unparseable exposition lines are skipped, so a raw
//! scrape works as-is. Exit status is 1 when any rule fires.

use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage: tssa-alerts --exposition PATH [--rules PATH]

  evaluate alert rules (default perf/alerts.toml) against a Prometheus
  text scrape; exit 1 if any rule fires
";

const DEFAULT_ALERTS: &str = "perf/alerts.toml";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("tssa-alerts: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Alert rules (a minimal TOML subset)
// ---------------------------------------------------------------------------

/// Comparison operator for an alert rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AlertOp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl AlertOp {
    fn parse(s: &str) -> Result<AlertOp, String> {
        match s {
            "gt" => Ok(AlertOp::Gt),
            "ge" => Ok(AlertOp::Ge),
            "lt" => Ok(AlertOp::Lt),
            "le" => Ok(AlertOp::Le),
            other => Err(format!("unknown op `{other}` (expected gt|ge|lt|le)")),
        }
    }

    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            AlertOp::Gt => value > threshold,
            AlertOp::Ge => value >= threshold,
            AlertOp::Lt => value < threshold,
            AlertOp::Le => value <= threshold,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            AlertOp::Gt => ">",
            AlertOp::Ge => ">=",
            AlertOp::Lt => "<",
            AlertOp::Le => "<=",
        }
    }
}

/// One rule from `perf/alerts.toml`.
#[derive(Debug, Clone, PartialEq)]
struct AlertRule {
    name: String,
    metric: String,
    op: AlertOp,
    threshold: f64,
    severity: String,
    summary: String,
}

/// Parse `[alert.<name>]` sections: `key = value` pairs, `#` comments,
/// bare or double-quoted names and values. Every rule must name a metric;
/// op defaults to `gt`, threshold to 0. A repeated rule name, a repeated key
/// within one rule, or a threshold that is not a finite number is an error —
/// each would otherwise disable or silently override a rule.
fn parse_alert_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules: Vec<AlertRule> = Vec::new();
    // Keys already set in the current section.
    let mut seen: Vec<&str> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = match raw.split_once('#') {
            Some((before, _)) => before.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("alerts line {}: {msg}", lineno + 1);
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated section header"))?
                .trim();
            let name = header
                .strip_prefix("alert.")
                .ok_or_else(|| {
                    at(&format!(
                        "unknown section `[{header}]` (expected [alert.<name>])"
                    ))
                })?
                .trim();
            let name = name
                .strip_prefix('"')
                .and_then(|n| n.strip_suffix('"'))
                .unwrap_or(name);
            if name.is_empty() {
                return Err(at("empty alert name"));
            }
            if rules.iter().any(|r| r.name == name) {
                return Err(at(&format!("duplicate alert `{name}`")));
            }
            rules.push(AlertRule {
                name: name.to_string(),
                metric: String::new(),
                op: AlertOp::Gt,
                threshold: 0.0,
                severity: "warn".into(),
                summary: String::new(),
            });
            seen.clear();
            continue;
        }
        let Some(rule) = rules.last_mut() else {
            return Err(at("key before any [alert.<name>] section"));
        };
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at("expected `key = value`"))?;
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(at(&format!("duplicate key `{key}`")));
        }
        seen.push(key);
        let unquote = |v: &str| -> String {
            v.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .unwrap_or(v)
                .to_string()
        };
        match key {
            "metric" => rule.metric = unquote(value),
            "op" => rule.op = AlertOp::parse(&unquote(value)).map_err(|e| at(&e))?,
            "threshold" => {
                // `str::parse::<f64>` accepts `nan` and `inf`; a NaN
                // threshold never fires, so only finite numbers are rules.
                rule.threshold = value
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite())
                    .ok_or_else(|| at(&format!("bad number `{value}`")))?;
            }
            "severity" => rule.severity = unquote(value),
            "summary" => rule.summary = unquote(value),
            other => return Err(at(&format!("unknown key `{other}`"))),
        }
    }
    for rule in &rules {
        if rule.metric.is_empty() {
            return Err(format!("alert `{}` has no metric", rule.name));
        }
    }
    Ok(rules)
}

/// Sum every sample of every metric in a Prometheus text exposition,
/// keyed by metric name (label sets collapse into one total). Comment
/// lines and anything that doesn't parse as `name[{labels}] value` are
/// skipped, so a raw network scrape works without cleanup.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut sums: HashMap<String, f64> = HashMap::new();
    for raw in text.lines() {
        let mut line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Strip an OpenMetrics exemplar suffix (` # {trace_id="..."} v`)
        // so the last whitespace token is the sample value again.
        if let Some(cut) = line.find(" # ") {
            line = line[..cut].trim_end();
        }
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            continue;
        }
        let Some(value_tok) = line.rsplit(|c: char| c.is_whitespace()).next() else {
            continue;
        };
        let Ok(value) = value_tok.parse::<f64>() else {
            continue;
        };
        if value.is_finite() {
            *sums.entry(name.to_string()).or_insert(0.0) += value;
        }
    }
    sums
}

/// The result of evaluating one rule against one exposition.
#[derive(Debug, Clone, PartialEq)]
struct AlertOutcome {
    rule: AlertRule,
    /// `None` when the metric was absent from the exposition (no data).
    value: Option<f64>,
    firing: bool,
}

fn evaluate_alerts(rules: &[AlertRule], samples: &HashMap<String, f64>) -> Vec<AlertOutcome> {
    rules
        .iter()
        .map(|rule| {
            let value = samples.get(&rule.metric).copied();
            // Absent metric → no data → never fires, mirroring Prometheus.
            let firing = value.is_some_and(|v| rule.op.holds(v, rule.threshold));
            AlertOutcome {
                rule: rule.clone(),
                value,
                firing,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Command
// ---------------------------------------------------------------------------

fn run(args: &[String]) -> Result<bool, String> {
    let mut rules_path = DEFAULT_ALERTS.to_string();
    let mut exposition_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--rules" => rules_path = take()?,
            "--exposition" => exposition_path = Some(take()?),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let exposition_path =
        exposition_path.ok_or_else(|| format!("needs --exposition PATH\n{USAGE}"))?;
    let rules_text =
        std::fs::read_to_string(&rules_path).map_err(|e| format!("{rules_path}: {e}"))?;
    let rules = parse_alert_rules(&rules_text)?;
    if rules.is_empty() {
        return Err(format!("{rules_path}: no alert rules defined"));
    }
    let exposition =
        std::fs::read_to_string(&exposition_path).map_err(|e| format!("{exposition_path}: {e}"))?;
    let samples = parse_exposition(&exposition);
    if samples.is_empty() {
        return Err(format!(
            "{exposition_path}: no parseable samples — is this a Prometheus text exposition?"
        ));
    }
    let outcomes = evaluate_alerts(&rules, &samples);
    let firing: Vec<&AlertOutcome> = outcomes.iter().filter(|o| o.firing).collect();
    for o in &outcomes {
        match o.value {
            Some(v) if o.firing => eprintln!(
                "tssa-alerts: ALERT [{}] {}: {} = {v} {} {} — {}",
                o.rule.severity,
                o.rule.name,
                o.rule.metric,
                o.rule.op.symbol(),
                o.rule.threshold,
                o.rule.summary
            ),
            Some(v) => println!("tssa-alerts: ok {}: {} = {v}", o.rule.name, o.rule.metric),
            None => println!(
                "tssa-alerts: no data for {}: metric {} absent",
                o.rule.name, o.rule.metric
            ),
        }
    }
    if firing.is_empty() {
        println!(
            "tssa-alerts: {} alert rule(s) evaluated against {exposition_path}, none firing",
            outcomes.len()
        );
        Ok(true)
    } else {
        eprintln!("tssa-alerts: {} alert(s) firing", firing.len());
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_rules_parse_and_validate() {
        let text = r#"
# spans must never drop
[alert.spans_dropped]
metric = "tssa_obs_spans_dropped_total"
op = "gt"
threshold = 0
severity = "page"
summary = "sink dropped spans"

[alert.low_headroom]
metric = "tssa_pool_workers"
op = "lt"
threshold = 1
"#;
        let rules = parse_alert_rules(text).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "spans_dropped");
        assert_eq!(rules[0].op, AlertOp::Gt);
        assert_eq!(rules[0].severity, "page");
        assert_eq!(rules[1].op, AlertOp::Lt);
        assert_eq!(rules[1].threshold, 1.0);
        assert_eq!(rules[1].severity, "warn", "severity defaults to warn");

        assert!(
            parse_alert_rules("metric = \"x\"").is_err(),
            "key before section"
        );
        assert!(
            parse_alert_rules("[alert.x]\n").is_err(),
            "rule without metric"
        );
        assert!(
            parse_alert_rules("[alert.x]\nmetric = \"m\"\nop = \"between\"\n").is_err(),
            "unknown op"
        );
        assert!(parse_alert_rules("[watch.x]\n").is_err(), "unknown section");
    }

    #[test]
    fn non_finite_thresholds_are_rejected_with_their_line() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("[alert.x]\nmetric = \"m\"\nthreshold = {bad}\n");
            let err = parse_alert_rules(&text).unwrap_err();
            assert!(err.starts_with("alerts line 3:"), "{bad}: {err}");
        }
    }

    #[test]
    fn a_repeated_key_in_one_rule_is_rejected_with_its_line() {
        let text = "[alert.x]\nmetric = \"a\"\nthreshold = 1\nmetric = \"b\"\n";
        let err = parse_alert_rules(text).unwrap_err();
        assert!(err.starts_with("alerts line 4:"), "{err}");
        assert!(err.contains("duplicate key `metric`"), "{err}");
        // The same key in two different rules is fine.
        let two = "[alert.x]\nmetric = \"a\"\n[alert.y]\nmetric = \"b\"\n";
        assert_eq!(parse_alert_rules(two).unwrap().len(), 2);
    }

    #[test]
    fn a_repeated_rule_name_is_rejected_with_its_line() {
        let text = "[alert.x]\nmetric = \"a\"\n\n[alert.\"x\"]\nmetric = \"b\"\n";
        let err = parse_alert_rules(text).unwrap_err();
        assert!(err.starts_with("alerts line 4:"), "{err}");
        assert!(err.contains("duplicate alert `x`"), "{err}");
    }

    #[test]
    fn exposition_parser_sums_series_and_skips_junk() {
        let text = "\
# HELP tssa_net_responses_total responses\n\
# TYPE tssa_net_responses_total counter\n\
tssa_net_responses_total{code=\"200\"} 10\n\
tssa_net_responses_total{code=\"429\"} 2.5\n\
tssa_obs_spans_dropped_total 0\n\
1a4\n\
this line is chunked-transfer noise\n\
tssa_queue_wait_us_bucket{le=\"64\"} 3\n\
tssa_queue_wait_us_bucket{le=\"128\"} 5 # {trace_id=\"00000000000000ff\"} 90\n";
        let sums = parse_exposition(text);
        assert_eq!(sums.get("tssa_net_responses_total"), Some(&12.5));
        assert_eq!(sums.get("tssa_obs_spans_dropped_total"), Some(&0.0));
        assert_eq!(
            sums.get("tssa_queue_wait_us_bucket"),
            Some(&8.0),
            "exemplar suffix is stripped, not parsed as the value"
        );
        assert!(!sums.contains_key("this"), "prose lines are skipped");
        assert!(!sums.contains_key("1a4"), "chunk-size lines are skipped");
    }

    #[test]
    fn alerts_fire_on_threshold_and_stay_silent_on_no_data() {
        let rules = parse_alert_rules(
            "[alert.dropped]\nmetric = \"dropped_total\"\nop = \"gt\"\nthreshold = 0\n\
             [alert.ghost]\nmetric = \"not_scraped\"\nop = \"gt\"\nthreshold = 0\n",
        )
        .unwrap();
        let samples = parse_exposition("dropped_total 3\n");
        let outcomes = evaluate_alerts(&rules, &samples);
        assert!(outcomes[0].firing, "3 > 0 fires");
        assert_eq!(outcomes[0].value, Some(3.0));
        assert!(!outcomes[1].firing, "absent metric never fires");
        assert_eq!(outcomes[1].value, None);

        let quiet = evaluate_alerts(&rules, &parse_exposition("dropped_total 0\n"));
        assert!(!quiet[0].firing, "0 > 0 does not fire");
    }

    #[test]
    fn checked_in_alert_rules_cover_dropped_spans() {
        // The repo's rules file must parse and must watch the span-drop
        // counter.
        let manifest = env!("CARGO_MANIFEST_DIR");
        let text = std::fs::read_to_string(format!("{manifest}/{DEFAULT_ALERTS}")).unwrap();
        let rules = parse_alert_rules(&text).unwrap();
        let rule = rules
            .iter()
            .find(|r| r.metric == "tssa_obs_spans_dropped_total")
            .expect("a rule must watch tssa_obs_spans_dropped_total");
        assert_eq!(rule.op, AlertOp::Gt);
        assert_eq!(rule.threshold, 0.0);
        let fired = evaluate_alerts(
            std::slice::from_ref(rule),
            &parse_exposition("tssa_obs_spans_dropped_total 1\n"),
        );
        assert!(fired[0].firing, "one dropped span must page");
    }

    #[test]
    fn checked_in_alert_rules_cover_profile_merge_cost() {
        // The op-level profiler meters its own merge wall time; the rules
        // file must watch it so a runaway merge cost files a ticket.
        let manifest = env!("CARGO_MANIFEST_DIR");
        let text = std::fs::read_to_string(format!("{manifest}/{DEFAULT_ALERTS}")).unwrap();
        let rules = parse_alert_rules(&text).unwrap();
        let rule = rules
            .iter()
            .find(|r| r.metric == "tssa_obs_profile_merge_us")
            .expect("a rule must watch tssa_obs_profile_merge_us");
        assert_eq!(rule.op, AlertOp::Gt);
        assert!(
            rule.threshold > 0.0,
            "merge cost is nonzero whenever the profiler runs; the rule must not fire on healthy scrapes"
        );
        let healthy = evaluate_alerts(
            std::slice::from_ref(rule),
            &parse_exposition("tssa_obs_profile_merge_us 120\n"),
        );
        assert!(!healthy[0].firing, "a healthy merge cost stays quiet");
        let runaway = evaluate_alerts(
            std::slice::from_ref(rule),
            &parse_exposition(&format!(
                "tssa_obs_profile_merge_us {}\n",
                rule.threshold + 1.0
            )),
        );
        assert!(runaway[0].firing, "a runaway merge cost must fire");
    }
}
