//! Lossy dataset salvage over committed corrupt fixtures.
//!
//! `corrupt_dataset/` mimics a real capture directory after a bad run:
//! a healthy session, a truncated file (the collector died mid-write),
//! and a manifest entry whose file was never flushed. `future_dataset/`
//! declares a format version newer than this build. `load_all` refuses
//! both wholesale; `load_all_lossy` salvages every healthy session and
//! names each loss with a typed [`LoadError`].

use measure::dataset::{Dataset, DatasetManifest, LoadError, DATASET_VERSION};
use std::path::PathBuf;

fn fixture(name: &str) -> Dataset {
    Dataset::at(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name))
}

#[test]
fn corrupt_dataset_salvages_the_healthy_session() {
    let ds = fixture("corrupt_dataset");
    // The strict loader refuses the whole directory.
    assert!(ds.load_all().is_err());

    let (records, errors) = ds.load_all_lossy();
    assert_eq!(records.len(), 1, "exactly the healthy session survives");
    assert_eq!(records[0].spec.seed, 1);
    assert_eq!(records[0].trace.len(), 3);

    assert_eq!(errors.len(), 2, "one loss per broken entry: {errors:?}");
    match &errors[0] {
        LoadError::MalformedSession { name, detail } => {
            assert_eq!(name, "001_truncated_seed2.json");
            assert!(!detail.is_empty());
        }
        other => panic!("expected MalformedSession for the truncated file, got {other:?}"),
    }
    assert_eq!(
        errors[1],
        LoadError::MissingSession { name: "002_never_flushed_seed3.json".to_string() }
    );
}

#[test]
fn future_version_is_noted_but_salvage_continues() {
    let ds = fixture("future_dataset");
    let (records, errors) = ds.load_all_lossy();
    assert_eq!(records.len(), 1, "per-session sniffing still understands the files");
    assert_eq!(records[0].spec.seed, 9);
    assert_eq!(errors, vec![LoadError::UnknownVersion { found: 99, supported: DATASET_VERSION }]);
}

#[test]
fn missing_manifest_is_terminal() {
    let ds = Dataset::at(std::env::temp_dir().join(format!(
        "midband5g-lossy-nowhere-{}",
        std::process::id()
    )));
    let (records, errors) = ds.load_all_lossy();
    assert!(records.is_empty());
    assert_eq!(errors.len(), 1);
    assert!(
        matches!(&errors[0], LoadError::MissingManifest { .. }),
        "expected MissingManifest, got {errors:?}"
    );
}

#[test]
fn malformed_manifest_is_terminal() {
    let root =
        std::env::temp_dir().join(format!("midband5g-lossy-badmanifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("manifest.json"), "{ not json").unwrap();
    let (records, errors) = Dataset::at(&root).load_all_lossy();
    assert!(records.is_empty());
    assert_eq!(errors.len(), 1);
    assert!(
        matches!(&errors[0], LoadError::MalformedManifest { .. }),
        "expected MalformedManifest, got {errors:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Every load error renders a human-readable message naming the culprit.
#[test]
fn load_errors_display_their_cause() {
    let (_, errors) = fixture("corrupt_dataset").load_all_lossy();
    let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
    assert!(rendered[0].contains("001_truncated_seed2.json"));
    assert!(rendered[1].contains("002_never_flushed_seed3.json"));
    let (_, errors) = fixture("future_dataset").load_all_lossy();
    assert!(errors[0].to_string().contains("99"));
}

/// Manifest names are untrusted: a name that climbs out of `sessions/`,
/// an absolute path or a nested path is refused as malformed, even when
/// it points at a perfectly good session file.
#[test]
fn out_of_tree_session_names_are_refused() {
    let root =
        std::env::temp_dir().join(format!("midband5g-lossy-escape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let healthy = fixture("v3_dataset");
    let manifest = healthy.manifest().unwrap();
    let ds = Dataset::at(&root);
    let result = &healthy.load_all().unwrap()[0];
    ds.export("escape", std::slice::from_ref(result)).unwrap();
    let plain = ds.manifest().unwrap().sessions[0].clone();
    let outside = root.join("outside.kpi");
    std::fs::copy(root.join("sessions").join(&plain), &outside).unwrap();

    let forged = [
        "../outside.kpi".to_string(),
        outside.to_string_lossy().into_owned(),
        format!("../sessions/{plain}"),
    ];
    let mut names = vec![plain];
    names.extend(forged.iter().cloned());
    let rewritten = DatasetManifest { sessions: names, ..manifest };
    std::fs::write(root.join("manifest.json"), serde_json::to_string_pretty(&rewritten).unwrap())
        .unwrap();

    let err = ds.load_all().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let (records, errors) = ds.load_all_lossy();
    assert_eq!(records.len(), 1, "only the plain name loads");
    assert_eq!(errors.len(), forged.len(), "{errors:?}");
    for (error, name) in errors.iter().zip(&forged) {
        assert!(
            matches!(error, LoadError::MalformedSession { name: n, .. } if n == name),
            "{name}: {error:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
