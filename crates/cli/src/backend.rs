//! Shared parsing of memory-backend names.
//!
//! `ccache sweep` and `ccache tune` both take backend selections on the command line;
//! this module interprets those strings with [`BackendKind::parse`] — the same parse the
//! experiment-spec grammar uses — so the accepted names and the `expected ...` lists in
//! usage errors (exit code 2) come from one place and can never drift apart.

use crate::args::ArgParser;
use crate::error::CliError;
use ccache_sim::backend::BackendKind;

/// Parses one backend name, failing with the uniform usage error naming `flag`.
///
/// # Errors
///
/// Returns a usage error (exit code 2) for unknown names.
pub fn parse_backend(raw: &str, flag: &str, parser: &ArgParser) -> Result<BackendKind, CliError> {
    BackendKind::parse(raw).ok_or_else(|| {
        parser.usage(format!(
            "invalid value '{raw}' for '{flag}' (expected {})",
            BackendKind::expected_single()
        ))
    })
}

/// Consumes `flag` from the parser as a backend list: absent or `all` selects every
/// backend, any other value must name exactly one.
///
/// # Errors
///
/// Returns a usage error (exit code 2) for unknown names or a missing value.
pub fn backends_from_parser(
    parser: &mut ArgParser,
    flag: &str,
) -> Result<Vec<BackendKind>, CliError> {
    match parser.value(flag)?.as_deref() {
        None | Some("all") => Ok(BackendKind::ALL.to_vec()),
        Some(raw) => match BackendKind::parse(raw) {
            Some(kind) => Ok(vec![kind]),
            None => Err(parser.usage(format!(
                "invalid value '{raw}' for '{flag}' (expected {})",
                BackendKind::expected_list()
            ))),
        },
    }
}

/// Consumes `flag` from the parser as a single backend, with a default when absent.
///
/// # Errors
///
/// Returns a usage error (exit code 2) for unknown names or a missing value.
pub fn backend_from_parser(
    parser: &mut ArgParser,
    flag: &str,
    default: BackendKind,
) -> Result<BackendKind, CliError> {
    match parser.value(flag)? {
        None => Ok(default),
        Some(raw) => parse_backend(&raw, flag, parser),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser(args: &[&str]) -> ArgParser {
        ArgParser::new("sweep", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn absent_and_all_select_every_backend() {
        let mut p = parser(&[]);
        assert_eq!(
            backends_from_parser(&mut p, "--backend").unwrap(),
            BackendKind::ALL.to_vec()
        );
        let mut p = parser(&["--backend", "all"]);
        assert_eq!(
            backends_from_parser(&mut p, "--backend").unwrap(),
            BackendKind::ALL.to_vec()
        );
        p.finish().unwrap();
    }

    #[test]
    fn single_names_parse_to_one_backend() {
        for (name, kind) in [
            ("column", BackendKind::ColumnCache),
            ("set-assoc", BackendKind::SetAssociative),
            ("ideal", BackendKind::IdealScratchpad),
        ] {
            let mut p = parser(&["--backend", name]);
            assert_eq!(
                backends_from_parser(&mut p, "--backend").unwrap(),
                vec![kind]
            );
        }
    }

    #[test]
    fn unknown_names_are_uniform_usage_errors_with_exit_2() {
        let mut p = parser(&["--backend", "victim-cache"]);
        let err = backends_from_parser(&mut p, "--backend").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert_eq!(
            err.to_string(),
            "invalid value 'victim-cache' for '--backend' (expected column, set-assoc, \
             ideal or all) for 'ccache sweep' (try 'ccache sweep --help')"
        );

        let mut p = parser(&["--baseline", "victim-cache"]);
        let err =
            backend_from_parser(&mut p, "--baseline", BackendKind::SetAssociative).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err
            .to_string()
            .contains("invalid value 'victim-cache' for '--baseline'"));
    }

    #[test]
    fn single_backend_falls_back_to_the_default() {
        let mut p = parser(&[]);
        assert_eq!(
            backend_from_parser(&mut p, "--baseline", BackendKind::SetAssociative).unwrap(),
            BackendKind::SetAssociative
        );
        let mut p = parser(&["--baseline", "ideal"]);
        assert_eq!(
            backend_from_parser(&mut p, "--baseline", BackendKind::SetAssociative).unwrap(),
            BackendKind::IdealScratchpad
        );
    }

    /// CLI names and experiment-spec names agree because both go through
    /// [`BackendKind::parse`].
    #[test]
    fn cli_and_spec_names_agree() {
        for kind in BackendKind::ALL {
            let mut spellings = vec![kind.canonical_name(), kind.short_name()];
            if kind == BackendKind::SetAssociative {
                spellings.extend(["setassoc", "baseline"]);
            }
            for spelling in spellings {
                // CLI flag parsing
                let mut p = parser(&["--backend", spelling]);
                assert_eq!(
                    backends_from_parser(&mut p, "--backend").unwrap(),
                    vec![kind],
                    "CLI must accept spelling '{spelling}'"
                );
                assert_eq!(BackendKind::parse(spelling), Some(kind));
                // experiment-spec JSON grammar
                let spec = ccache_exp::ExperimentSpec::parse_str(&format!(
                    r#"{{"name": "t", "replay": [{{"workloads": ["fir"],
                         "backends": ["{spelling}"]}}]}}"#
                ))
                .unwrap_or_else(|e| panic!("spec must accept '{spelling}': {e}"));
                assert_eq!(spec.replay[0].backends, vec![kind]);
            }
            // the canonical name round-trips through Display
            assert_eq!(kind.canonical_name(), kind.to_string());
        }
        // spec errors list the same derived names the CLI errors do
        let err = ccache_exp::ExperimentSpec::parse_str(
            r#"{"name": "t", "replay": [{"workloads": ["fir"], "backends": ["victim"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains(BackendKind::expected_single()));
    }
}
