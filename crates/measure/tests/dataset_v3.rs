//! The v3 binary session file: bit-exact float round trips, resuming a
//! checkpoint of older v2 JSON sessions, typed rejection of truncated
//! commits, and the dataset byte counters and load span.
//!
//! Traces holding NaN compare unequal under `SlotKpi ==`, so round trips
//! are judged by re-encoding the loaded session: equal bytes mean every
//! field and every float bit pattern came back.

use measure::campaign::{Campaign, CampaignOutcome, CheckpointManifest, Plan, DEFAULT_RETRY_BUDGET};
use measure::dataset::{decode_session, encode_session, Dataset, DecodeError, LoadError};
use measure::executor::Executor;
use measure::fault::FaultConfig;
use measure::session::{SessionResult, SessionSpec};
use operators::Operator;
use ran::kpi::{KpiTrace, SlotKpi};
use std::path::{Path, PathBuf};

/// A checkpointed run of `campaign` into `dir` with the default retry
/// budget.
fn run_checkpointed(
    campaign: &Campaign,
    dir: &Path,
    executor: Executor,
    faults: &FaultConfig,
) -> std::io::Result<CampaignOutcome> {
    let plan = Plan { executor, faults: *faults, retry_budget: DEFAULT_RETRY_BUDGET };
    plan.run_checkpointed(dir, &campaign.specs(), &campaign.checkpoint_description())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midband5g-v3-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Floats JSON cannot carry: NaN payloads (quiet, signalling, negative),
/// infinities, negative zero and subnormals.
const SPECIAL_BITS: [u64; 10] = [
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_dead_beef,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_0042,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800f_ffff_ffff_ffff,
    0x0008_0000_0000_0000,
];

/// The special floats a timestamp may be: negative zero and positive
/// subnormals (the loader refuses NaN, infinite and negative times).
const SPECIAL_TIME_BITS: [u64; 3] =
    [0x8000_0000_0000_0000, 0x0000_0000_0000_0001, 0x0008_0000_0000_0000];

fn special_trace(base: &KpiTrace) -> KpiTrace {
    base.iter()
        .enumerate()
        .map(|(i, r)| {
            let pick = |k: usize| f64::from_bits(SPECIAL_BITS[(i + k) % SPECIAL_BITS.len()]);
            let time = f64::from_bits(SPECIAL_TIME_BITS[i % SPECIAL_TIME_BITS.len()]);
            SlotKpi {
                time_s: if i % 3 == 0 { time } else { r.time_s },
                sinr_db: pick(1),
                rsrp_dbm: pick(2),
                rsrq_db: pick(3),
                queue_delay_ms: pick(4),
                ..r
            }
        })
        .collect()
}

#[test]
fn special_floats_round_trip_bit_exactly() {
    let result = SessionResult::run(SessionSpec::stationary(Operator::VodafoneSpain, 0, 1.5, 21));
    let trace = special_trace(&result.trace);
    assert!(
        trace.len() > 4096,
        "spans a chunk boundary: {}",
        trace.len()
    );
    let original = SessionResult {
        spec: result.spec,
        trace,
    };
    let bytes = encode_session(&original.spec, &original.trace);

    // Through `export` + `load_all` …
    let ds = Dataset::at(tmpdir("special"));
    ds.export("special floats", std::slice::from_ref(&original))
        .unwrap();
    let loaded = ds.load_all().unwrap();
    assert_eq!(encode_session(&loaded[0].spec, &loaded[0].trace), bytes);
    assert_eq!(
        loaded[0].trace.duration_s().to_bits(),
        original.trace.duration_s().to_bits()
    );

    // … and through the checkpoint writer.
    let name = ds.write_session(7, &original).unwrap();
    assert!(name.ends_with(".kpi"), "{name}");
    assert_eq!(
        std::fs::read(ds.root().join("sessions").join(&name)).unwrap(),
        bytes
    );
    let back = ds.load_session(&name).unwrap();
    assert_eq!(encode_session(&back.spec, &back.trace), bytes);
    std::fs::remove_dir_all(ds.root()).unwrap();
}

/// A session file whose record `index` carries `time_s`, with a valid
/// checksum: the forgery a sealed file can hold.
fn forge_time(spec: &SessionSpec, trace: &KpiTrace, index: usize, time_s: f64) -> Vec<u8> {
    let mut bytes = encode_session(spec, trace);
    let spec_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let time_column = 16 + spec_len.next_multiple_of(8) + 8 + trace.len() * 8;
    let at = time_column + index * 8;
    bytes[at..at + 8].copy_from_slice(&time_s.to_bits().to_le_bytes());
    let body = bytes.len() - 8;
    let sum = measure::dataset::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn impossible_times_are_refused_with_a_typed_error() {
    let result = SessionResult::run(SessionSpec::stationary(Operator::VodafoneSpain, 0, 0.2, 8));
    let index = result.trace.len() / 2;
    let keep = |t: f64| forge_time(&result.spec, &result.trace, index, t);
    // A forged but possible time still loads.
    let record = decode_session(&keep(1e15)).expect("a finite time loads");
    assert_eq!(record.trace.get(index).unwrap().time_s, 1e15);
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-3, -1e300] {
        match decode_session(&keep(bad)) {
            Err(DecodeError::ImpossibleTime { index: at, time_s }) => {
                assert_eq!((at, time_s.to_bits()), (index as u64, bad.to_bits()));
            }
            other => panic!("time {bad}: {other:?}"),
        }
    }
}

#[test]
fn fault_corrupted_checkpointed_sessions_reload_bit_identically() {
    let dir = tmpdir("corrupt-ckpt");
    let campaign = Campaign {
        operator: Operator::TelekomGermany,
        sessions: 3,
        session_duration_s: 0.5,
        base_seed: 77,
    };
    let faults = FaultConfig {
        corrupt_rate: 0.2,
        ..FaultConfig::default()
    };
    let outcome = run_checkpointed(&campaign, &dir, Executor::new(2), &faults).unwrap();
    assert!(
        outcome
            .results
            .iter()
            .any(|r| r.trace.iter().any(|k| k.sinr_db.is_nan())),
        "the fault plan corrupted some records"
    );
    let loaded = Dataset::at(&dir).load_all().unwrap();
    assert_eq!(loaded.len(), outcome.results.len());
    for (record, result) in loaded.iter().zip(&outcome.results) {
        assert_eq!(
            encode_session(&record.spec, &record.trace),
            encode_session(&result.spec, &result.trace)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Rewrite a finished checkpoint dir in the v2 layout: every session as a
/// `.json` file in the v2 columnar JSON form, `checkpoint.json` naming
/// those files.
fn downgrade_to_v2(dir: &Path) {
    let path = dir.join("checkpoint.json");
    let mut ckpt: CheckpointManifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let ds = Dataset::at(dir);
    for entry in &mut ckpt.entries {
        let record = ds.load_session(&entry.name).unwrap();
        let json_name = entry.name.replace(".kpi", ".json");
        std::fs::write(
            dir.join("sessions").join(&json_name),
            serde_json::to_string(&record).unwrap(),
        )
        .unwrap();
        std::fs::remove_file(dir.join("sessions").join(&entry.name)).unwrap();
        entry.name = json_name;
    }
    std::fs::write(&path, serde_json::to_string_pretty(&ckpt).unwrap()).unwrap();
}

#[test]
fn v2_json_checkpoint_resumes_without_rerunning() {
    let dir = tmpdir("v2-resume");
    let campaign = Campaign {
        operator: Operator::VodafoneItaly,
        sessions: 3,
        session_duration_s: 0.4,
        base_seed: 300,
    };
    let faults = FaultConfig::default();
    let first = run_checkpointed(&campaign, &dir, Executor::sequential(), &faults).unwrap();
    downgrade_to_v2(&dir);
    let json_before: Vec<Vec<u8>> = sorted_sessions(&dir)
        .iter()
        .map(|p| std::fs::read(p).unwrap())
        .collect();

    let resumed = run_checkpointed(&campaign, &dir, Executor::sequential(), &faults).unwrap();
    // Nothing re-ran: a re-run session would have been committed as a
    // fresh `.kpi` file next to the JSON ones.
    let after = sorted_sessions(&dir);
    assert!(
        after.iter().all(|p| p.extension().unwrap() == "json"),
        "{after:?}"
    );
    let json_after: Vec<Vec<u8>> = after.iter().map(|p| std::fs::read(p).unwrap()).collect();
    assert_eq!(json_before, json_after);
    assert_eq!(first.results, resumed.results);

    // The finished directory is a loadable dataset over the JSON files.
    let loaded = Dataset::at(&dir).load_all().unwrap();
    assert_eq!(loaded.len(), 3);
    for (record, result) in loaded.iter().zip(&first.results) {
        assert_eq!(record.trace, result.trace);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sorted_sessions(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.join("sessions"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

/// Halve a committed session file the way the `truncate_session`
/// checkpoint fault does.
fn halve(path: &Path) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len / 2).unwrap();
}

#[test]
fn halved_v3_commit_is_rejected_with_a_typed_error_and_rerun() {
    let dir = tmpdir("halved");
    let campaign = Campaign {
        operator: Operator::AttUs,
        sessions: 2,
        session_duration_s: 0.3,
        base_seed: 90,
    };
    let faults = FaultConfig::default();
    run_checkpointed(&campaign, &dir, Executor::sequential(), &faults).unwrap();
    let ds = Dataset::at(&dir);
    let names = ds.manifest().unwrap().sessions;
    let torn = dir.join("sessions").join(&names[1]);
    let intact = std::fs::read(&torn).unwrap();
    halve(&torn);

    let err = decode_session(&std::fs::read(&torn).unwrap()).unwrap_err();
    assert!(matches!(err, DecodeError::LengthMismatch { .. }), "{err:?}");
    let io_err = ds.load_session(&names[1]).unwrap_err();
    assert_eq!(io_err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        io_err
            .get_ref()
            .and_then(|e| e.downcast_ref::<DecodeError>()),
        Some(&err)
    );
    let (records, errors) = ds.load_all_lossy();
    assert_eq!(records.len(), 1);
    assert_eq!(
        errors,
        vec![LoadError::MalformedSession {
            name: names[1].clone(),
            detail: err.to_string()
        }]
    );

    // Resume never trusts the torn file: it re-runs the session and
    // commits the same bytes again.
    run_checkpointed(&campaign, &dir, Executor::sequential(), &faults).unwrap();
    assert_eq!(std::fs::read(&torn).unwrap(), intact);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn export_and_load_are_counted_and_timed() {
    let result = SessionResult::run(SessionSpec::stationary(Operator::OrangeFrance, 0, 0.2, 5));
    let ds = Dataset::at(tmpdir("obs"));
    let before = obs::snapshot();
    ds.export("obs", std::slice::from_ref(&result)).unwrap();
    ds.load_all().unwrap();
    let after = obs::snapshot();
    let grew = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let file = encode_session(&result.spec, &result.trace).len() as u64;
    assert!(
        grew("dataset.bytes_written") >= file,
        "writer counts its session bytes"
    );
    assert!(
        grew("dataset.bytes_read") >= file,
        "loader counts its session bytes"
    );
    let spans = |s: &obs::Snapshot| s.span("dataset.load").map_or(0, |h| h.count);
    assert!(
        spans(&after) > spans(&before),
        "load_all records a dataset.load span"
    );
    std::fs::remove_dir_all(ds.root()).unwrap();
}
