//! Holds the program to `BENCHMARK.json`: the workloads and metrics the
//! file names are the ones the tables in `spec` define, and a result line
//! carries each named metric exactly once, with its unit. No JSON crate
//! resolves offline, so a small parser lives here.

use std::collections::BTreeMap;

use crate::spec::{workloads, Better, MetricDef, END_TO_END, PER_LAYER};

/// The contract this program was built against, as committed.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys in file order, duplicates kept, so "exactly once" is checkable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| !b",]} \t\r\n".contains(c))
                {
                    self.at += 1;
                }
                let word =
                    std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
                match word {
                    "true" => Ok(Json::Bool(true)),
                    "false" => Ok(Json::Bool(false)),
                    "null" => Ok(Json::Null),
                    n => n
                        .parse()
                        .map(Json::Num)
                        .map_err(|_| format!("bad literal '{n}' at byte {start}")),
                }
            }
            None => Err("unexpected end of input".into()),
        }
    }

    /// Strings here are names, units and prose: escapes other than `\"`
    /// and `\\` are rejected rather than half-handled.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => match self.s.get(self.at + 1) {
                    Some(c @ (b'"' | b'\\')) => {
                        out.push(*c);
                        self.at += 2;
                    }
                    _ => return Err(format!("unsupported escape at byte {}", self.at)),
                },
                Some(c) => {
                    out.push(*c);
                    self.at += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(v)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

fn check_metric_list(section: &str, listed: &[Json], defs: &[MetricDef]) -> Result<(), String> {
    let mut want: BTreeMap<&str, &MetricDef> = defs.iter().map(|d| (d.name, d)).collect();
    for item in listed {
        let name = item
            .get("name")
            .and_then(Json::str)
            .ok_or(format!("{section}: a metric has no name"))?;
        if !valid_name(name) {
            return Err(format!("{section}: '{name}' is not a valid name"));
        }
        let def = want.remove(name).ok_or(format!(
            "{section}: '{name}' is listed twice or not measured"
        ))?;
        let better = match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        if item.get("unit").and_then(Json::str) != Some(def.unit)
            || item.get("better").and_then(Json::str) != Some(better)
        {
            return Err(format!(
                "{section}: '{name}' disagrees on unit or direction"
            ));
        }
    }
    match want.keys().next() {
        Some(missing) => Err(format!("{section}: '{missing}' is measured but not listed")),
        None => Ok(()),
    }
}

/// `BENCHMARK.json` and the program agree on workloads and metrics.
pub fn check_contract(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let section = |key: &str| -> Result<&[Json], String> {
        Ok(doc
            .get(key)
            .ok_or(format!("BENCHMARK.json has no '{key}'"))?
            .items())
    };
    let listed: Vec<&str> = section("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    let ours: Vec<&str> = workloads().iter().map(|w| w.name).collect();
    if listed != ours {
        return Err(format!(
            "workloads: file lists {listed:?}, program runs {ours:?}"
        ));
    }
    check_metric_list("end_to_end", section("end_to_end")?, END_TO_END)?;
    check_metric_list("per_layer", section("per_layer")?, PER_LAYER)?;
    for m in section("end_to_end")? {
        match m.get("bound") {
            Some(Json::Num(b)) if *b > 0.0 && *b <= 0.25 => {}
            _ => return Err(format!("end_to_end: {m:?} needs a bound in (0, 0.25]")),
        }
    }
    Ok(())
}

/// A result line carries exactly the metrics of `defs`, once each, each
/// with a numeric value and its unit.
pub fn check_result_line(line: &str, defs: &[MetricDef]) -> Result<(), String> {
    let doc = parse(line)?;
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("result line has no metrics object".into());
    };
    let mut want: BTreeMap<&str, &str> = defs.iter().map(|d| (d.name, d.unit)).collect();
    for (name, body) in fields {
        let unit = want
            .remove(name.as_str())
            .ok_or(format!("'{name}' printed twice or not in BENCHMARK.json"))?;
        if !matches!(body.get("value"), Some(Json::Num(_))) {
            return Err(format!("'{name}' has no numeric value"));
        }
        if body.get("unit").and_then(Json::str) != Some(unit) {
            return Err(format!("'{name}' printed without its unit '{unit}'"));
        }
    }
    match want.keys().next() {
        Some(missing) => Err(format!(
            "'{missing}' is in BENCHMARK.json but was not printed"
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_matches_the_program() {
        check_contract(BENCHMARK_JSON).unwrap();
    }

    #[test]
    fn a_renamed_or_missing_metric_is_caught() {
        let renamed = BENCHMARK_JSON.replacen("\"get_p50_us\"", "\"get_p50_ms\"", 1);
        assert!(check_contract(&renamed).is_err());
        let bad_name = BENCHMARK_JSON.replacen("\"get_p50_us\"", "\"get p50\"", 1);
        assert!(check_contract(&bad_name)
            .unwrap_err()
            .contains("valid name"));
    }

    #[test]
    fn result_lines_are_checked_for_duplicates_units_and_gaps() {
        let defs = &END_TO_END[..2];
        let ok = r#"{"correct": true, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "ops_per_s": {"value": 9.0, "unit": "1/s"}}}"#;
        check_result_line(ok, defs).unwrap();
        let twice = ok.replace("\"ops_per_s\"", "\"setup_s\"");
        assert!(check_result_line(&twice, defs)
            .unwrap_err()
            .contains("twice"));
        let no_unit = ok.replace("\"unit\": \"1/s\"", "\"unit\": \"\"");
        assert!(check_result_line(&no_unit, defs)
            .unwrap_err()
            .contains("unit"));
        let gap = r#"{"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        assert!(check_result_line(gap, defs)
            .unwrap_err()
            .contains("not printed"));
    }
}
