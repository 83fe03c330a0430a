//! Minimal flag parsing (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Splits `argv` into positionals and flags. `-k` is accepted as an
    /// alias for `--k`, and `--flag=value` as an alias for `--flag value`.
    /// A flag without a value is an error.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(name) = token.strip_prefix("--").or_else(|| token.strip_prefix('-')) {
                if let Some((name, value)) = name.split_once('=') {
                    args.flags.insert(name.to_owned(), value.to_owned());
                    i += 1;
                } else {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    args.flags.insert(name.to_owned(), value.clone());
                    i += 2;
                }
            } else {
                args.positional.push(token.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Positional argument at `index`.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positional.get(index).map(String::as_str)
    }

    /// Names of the flags given, without the leading dashes.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Number of positionals.
    #[cfg(test)]
    pub fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// String flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// Parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_positionals_and_flags() {
        let args = Args::parse(&argv(&["data.trees", "--tau", "3", "-k", "5"])).unwrap();
        assert_eq!(args.positional(0), Some("data.trees"));
        assert_eq!(args.positional_len(), 1);
        assert_eq!(args.get("tau"), Some("3"));
        assert_eq!(args.get("k"), Some("5"));
        assert_eq!(args.get("missing"), None);
    }

    #[test]
    fn flag_without_value_errors() {
        assert!(Args::parse(&argv(&["--tau"])).is_err());
    }

    #[test]
    fn equals_syntax_binds_value() {
        let args = Args::parse(&argv(&["--trace=json", "-k=5", "--query=a(b=c)"])).unwrap();
        assert_eq!(args.get("trace"), Some("json"));
        assert_eq!(args.get("k"), Some("5"));
        // Only the first '=' splits; the rest belongs to the value.
        assert_eq!(args.get("query"), Some("a(b=c)"));
    }

    #[test]
    fn typed_defaults() {
        let args = Args::parse(&argv(&["--k", "7"])).unwrap();
        assert_eq!(args.get_or("k", 1usize).unwrap(), 7);
        assert_eq!(args.get_or("tau", 4u32).unwrap(), 4);
        assert!(args.get_or::<usize>("k", 0).is_ok());
        let bad = Args::parse(&argv(&["--k", "x"])).unwrap();
        assert!(bad.get_or::<usize>("k", 0).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let args = Args::parse(&argv(&[])).unwrap();
        assert!(args.require("out").is_err());
    }
}
