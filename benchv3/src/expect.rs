//! Digests recorded in `benchv3/expected.json`, and the check against them.
//!
//! Run any workload with `BENCHV3_RECORD=1` to (re)write the digests it checks; a
//! normal run compares and counts every mismatch as a failed check.

use crate::harness::Checks;
use ccache_json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub struct Expected {
    path: PathBuf,
    values: BTreeMap<String, String>,
    record: bool,
}

impl Expected {
    /// Loads the recorded digests (an empty table when the file is missing).
    pub fn load() -> Self {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json");
        let values = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|doc| match doc {
                Json::Obj(pairs) => Some(
                    pairs
                        .into_iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k, s.to_owned())))
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default();
        Expected {
            path,
            values,
            record: std::env::var("BENCHV3_RECORD").is_ok_and(|v| v == "1"),
        }
    }

    /// Checks `actual` against the digest recorded under `key` (records it instead in
    /// record mode).
    pub fn check(&mut self, checks: &mut Checks, key: &str, actual: String) {
        if self.record {
            self.values.insert(key.to_owned(), actual);
            return;
        }
        let expected = self.values.get(key).cloned();
        checks.check(expected.as_deref() == Some(actual.as_str()), || {
            format!(
                "digest '{key}': got {actual}, expected {}",
                expected.as_deref().unwrap_or("<none recorded>")
            )
        });
    }

    /// Writes the table back in record mode.
    pub fn finish(&self) {
        if !self.record {
            return;
        }
        let doc = Json::obj(self.values.iter().map(|(k, v)| (k.as_str(), v.to_json())));
        if let Err(e) = std::fs::write(&self.path, doc.pretty() + "\n") {
            eprintln!("benchv3: cannot record {}: {e}", self.path.display());
        }
    }
}
