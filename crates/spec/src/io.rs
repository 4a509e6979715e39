//! Reading and writing scenario specs as YAML or JSON text and files.

use std::path::Path;

use serde::Serialize;

use crate::error::SpecError;
use crate::schema::ScenarioSpec;

/// Serialization format of a scenario file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// Block-style YAML (the default, human-friendly form).
    Yaml,
    /// Pretty-printed JSON.
    Json,
}

impl SpecFormat {
    /// Picks the format for a path from its extension (`.json` is JSON,
    /// everything else YAML).
    pub fn for_path(path: &Path) -> Self {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => SpecFormat::Json,
            _ => SpecFormat::Yaml,
        }
    }

    /// Canonical file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            SpecFormat::Yaml => "yaml",
            SpecFormat::Json => "json",
        }
    }

    /// Sniffs the format of raw spec bytes: JSON iff the first
    /// non-whitespace byte is `{`, YAML otherwise (YAML documents start
    /// with a key, a comment or a `---` marker; a YAML flow mapping at the
    /// top level would be valid JSON anyway).
    pub fn sniff(bytes: &[u8]) -> Self {
        match bytes.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'{') => SpecFormat::Json,
            _ => SpecFormat::Yaml,
        }
    }
}

/// Parses a spec from YAML text.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on malformed text or schema mismatches.
pub fn from_yaml_str(text: &str) -> Result<ScenarioSpec, SpecError> {
    serde_yaml::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
}

/// Parses a spec from JSON text.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on malformed text or schema mismatches.
pub fn from_json_str(text: &str) -> Result<ScenarioSpec, SpecError> {
    serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))
}

/// Parses a spec from raw in-memory bytes, sniffing the format with
/// [`SpecFormat::sniff`] — the disk-free entry point used by the serving
/// layer for uploaded scenario bodies.
///
/// # Errors
///
/// Returns [`SpecError::Parse`] on non-UTF-8 input, malformed text or
/// schema mismatches.
pub fn from_slice(bytes: &[u8]) -> Result<ScenarioSpec, SpecError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| SpecError::Parse(format!("spec is not valid utf-8: {e}")))?;
    match SpecFormat::sniff(bytes) {
        SpecFormat::Yaml => from_yaml_str(text),
        SpecFormat::Json => from_json_str(text),
    }
}

/// Serializes a spec in the given format.
pub fn to_string(spec: &ScenarioSpec, format: SpecFormat) -> String {
    match format {
        SpecFormat::Yaml => serde_yaml::to_string(spec).expect("YAML emit is infallible"),
        SpecFormat::Json => {
            let mut s = serde_json::to_string_pretty(spec).expect("JSON emit is infallible");
            s.push('\n');
            s
        }
    }
}

/// Serializes any serde value in the given format (used by the CLI for
/// reports).
pub fn value_to_string<T: Serialize>(value: &T, format: SpecFormat) -> String {
    match format {
        SpecFormat::Yaml => serde_yaml::to_string(value).expect("YAML emit is infallible"),
        SpecFormat::Json => {
            let mut s = serde_json::to_string_pretty(value).expect("JSON emit is infallible");
            s.push('\n');
            s
        }
    }
}

/// Loads a spec from a file, picking the format from the extension.
///
/// # Errors
///
/// Returns [`SpecError::Io`] when the file cannot be read and
/// [`SpecError::Parse`] when its content is malformed.
pub fn load(path: impl AsRef<Path>) -> Result<ScenarioSpec, SpecError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))?;
    match SpecFormat::for_path(path) {
        SpecFormat::Yaml => from_yaml_str(&text),
        SpecFormat::Json => from_json_str(&text),
    }
    .map_err(|e| match e {
        SpecError::Parse(msg) => SpecError::Parse(format!("{}: {msg}", path.display())),
        other => other,
    })
}

/// Writes a spec to a file in the format implied by the extension.
///
/// # Errors
///
/// Returns [`SpecError::Io`] when the file cannot be written.
pub fn save(spec: &ScenarioSpec, path: impl AsRef<Path>) -> Result<(), SpecError> {
    let path = path.as_ref();
    let text = to_string(spec, SpecFormat::for_path(path));
    atomic_write(path, text.as_bytes())
        .map_err(|e| SpecError::Io(format!("{}: {e}", path.display())))
}

/// Writes `bytes` to `path` atomically: the content goes to a hidden
/// sibling temp file first, is fsynced, and is then renamed over `path`
/// (with a best-effort directory fsync so the rename itself is durable).
/// Readers either see the old content or the complete new content, never
/// a torn file — the write discipline every durable output of the
/// workspace (spec exporters, bench reports, daemon WAL snapshots and
/// session checkpoints) goes through.
///
/// # Errors
///
/// Returns the underlying I/O error; on failure the temp file is removed
/// and `path` is left untouched.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    let path = path.as_ref();
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| std::io::Error::other(format!("{}: no file name", path.display())))?;
    // The process id and a process-wide sequence number give every write
    // its own temp file — across processes (two daemons pointed at the
    // same directory by mistake) and across threads of one process — so
    // concurrent writers never rename each other's temp file away; the
    // rename still serializes the final content.
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        Ok(())
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Directory fsync makes the rename durable across power loss; not
    // every platform supports opening a directory, so this stays
    // best-effort.
    if let Ok(dir_file) = std::fs::File::open(dir) {
        let _ = dir_file.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::builtin_specs;

    #[test]
    fn yaml_and_json_round_trip_builtin_specs() {
        for (name, spec) in builtin_specs() {
            let yaml = to_string(&spec, SpecFormat::Yaml);
            let from_yaml = from_yaml_str(&yaml).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(from_yaml, spec, "{name} YAML round trip");
            let json = to_string(&spec, SpecFormat::Json);
            let from_json = from_json_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(from_json, spec, "{name} JSON round trip");
        }
    }

    #[test]
    fn from_slice_sniffs_yaml_and_json() {
        for (name, spec) in builtin_specs() {
            let yaml = to_string(&spec, SpecFormat::Yaml);
            assert_eq!(SpecFormat::sniff(yaml.as_bytes()), SpecFormat::Yaml);
            assert_eq!(
                from_slice(yaml.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e}")),
                spec,
                "{name} YAML from_slice"
            );
            let json = to_string(&spec, SpecFormat::Json);
            assert_eq!(SpecFormat::sniff(json.as_bytes()), SpecFormat::Json);
            // Leading whitespace must not defeat the sniffer.
            let padded = format!("\n  \t{json}");
            assert_eq!(SpecFormat::sniff(padded.as_bytes()), SpecFormat::Json);
            assert_eq!(
                from_slice(padded.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e}")),
                spec,
                "{name} JSON from_slice"
            );
            // The inherent method is the same entry point.
            assert_eq!(ScenarioSpec::from_slice(json.as_bytes()).unwrap(), spec);
        }
    }

    #[test]
    fn from_slice_rejects_bad_input_without_touching_disk() {
        assert!(from_slice(&[0xff, 0xfe, 0x00]).is_err(), "non-utf8");
        let err = from_slice(b"{ not json").unwrap_err();
        assert!(err.to_string().contains("parse"), "{err}");
        assert!(
            from_slice(b"version: 1\nname: t\n").is_err(),
            "missing fields"
        );
    }

    #[test]
    fn format_detection_follows_extension() {
        assert_eq!(SpecFormat::for_path(Path::new("x.yaml")), SpecFormat::Yaml);
        assert_eq!(SpecFormat::for_path(Path::new("x.yml")), SpecFormat::Yaml);
        assert_eq!(SpecFormat::for_path(Path::new("x.json")), SpecFormat::Json);
        assert_eq!(SpecFormat::for_path(Path::new("noext")), SpecFormat::Yaml);
    }

    #[test]
    fn unknown_fields_are_rejected_with_context() {
        let err = from_yaml_str(
            "version: 1\nname: t\nslo_ms: 1.0\nfunctions: []\nedges: []\ntypo_field: 3\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("typo_field"), "{err}");
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = from_yaml_str("version: 1\nname: t\n").unwrap_err();
        assert!(err.to_string().contains("slo_ms"), "{err}");
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join("aarc-spec-atomic-write-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!(
            "aarc-spec-atomic-write-race-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.txt");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for writer in 0..8 {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let body = format!("writer {writer} round {round}");
                        atomic_write(path, body.as_bytes())
                            .unwrap_or_else(|e| panic!("writer {writer} round {round}: {e}"));
                    }
                });
            }
        });
        // The survivor is one complete write, and no temp file is left.
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("writer "), "{content}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_into_missing_directory_fails_cleanly() {
        let path = std::env::temp_dir()
            .join("aarc-spec-atomic-write-missing")
            .join("nested")
            .join("out.txt");
        assert!(atomic_write(&path, b"x").is_err());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("aarc-spec-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, spec) in builtin_specs() {
            for format in [SpecFormat::Yaml, SpecFormat::Json] {
                let path = dir.join(format!("{name}.{}", format.extension()));
                save(&spec, &path).unwrap();
                assert_eq!(load(&path).unwrap(), spec);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
