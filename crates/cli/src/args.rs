//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed flags: `--key value` pairs plus bare `--switch`es.
#[derive(Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `argv`. A token starting with `--` followed by a token that
    /// does not start with `--` is a key/value pair; otherwise a switch.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {tok}"));
            };
            match argv.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    out.values.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    out.switches.push(key.to_string());
                    i += 1;
                }
            }
        }
        Ok(out)
    }

    /// String value of `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string value.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed value, if given.
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|s| s.parse().map_err(|_| format!("invalid --{key}: {s}")))
            .transpose()
    }

    /// Parsed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// Whether the bare switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Error unless every parsed flag is in `valued` (takes a value) or
    /// `switches` (bare), and no `valued` flag was given bare. Lets a
    /// subcommand reject typo'd or value-less flags instead of silently
    /// ignoring them — essential where a dropped flag disables a gate.
    pub fn reject_unknown(&self, valued: &[&str], switches: &[&str]) -> Result<(), String> {
        for key in self.values.keys() {
            if !valued.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        for key in &self.switches {
            if valued.contains(&key.as_str()) {
                return Err(format!("--{key} needs a value"));
            }
            if !switches.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = Args::parse(&sv(&["--in", "x.tsv", "--verbose", "--ranks", "8"])).unwrap();
        assert_eq!(a.get("in"), Some("x.tsv"));
        assert!(a.has("verbose"));
        assert_eq!(a.get_or("ranks", 1usize).unwrap(), 8);
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&sv(&[])).unwrap();
        assert_eq!(a.get_or("scale", 0.5f64).unwrap(), 0.5);
        assert!(a.require("in").is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(Args::parse(&sv(&["oops"])).is_err());
    }

    #[test]
    fn bad_number_reported() {
        let a = Args::parse(&sv(&["--ranks", "eight"])).unwrap();
        assert!(a.get_or("ranks", 1usize).is_err());
    }

    #[test]
    fn reject_unknown_catches_typos_and_valueless_flags() {
        let ok = Args::parse(&sv(&["--in", "x.tsv", "--json"])).unwrap();
        assert!(ok.reject_unknown(&["in"], &["json"]).is_ok());
        // typo'd key
        let typo = Args::parse(&sv(&["--basline", "f.json"])).unwrap();
        assert!(typo.reject_unknown(&["baseline"], &[]).is_err());
        // valued flag given bare (its value was dropped)
        let bare = Args::parse(&sv(&["--baseline", "--threshold", "0.5"])).unwrap();
        assert!(bare
            .reject_unknown(&["baseline", "threshold"], &[])
            .is_err());
        // unknown switch
        let sw = Args::parse(&sv(&["--frobnicate"])).unwrap();
        assert!(sw.reject_unknown(&[], &["json"]).is_err());
    }
}
