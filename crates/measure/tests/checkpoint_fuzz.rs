//! Deterministic fuzzing of checkpoint resume over a mutated
//! `checkpoint.json`.
//!
//! A small chaos campaign is checkpointed once. Each iteration then
//! writes a mutated copy of its `checkpoint.json` — SplitMix64-driven bit
//! flips, truncations and digit edits (a digit replaced, inserted or
//! deleted, which is how a forged `records`, `index` or `stats` value
//! arrives) — next to the clean session files, and resumes the campaign
//! from it. Properties: resume never panics; every session the finished
//! `manifest.json` names loads and equals the clean run's session byte
//! for byte; and `total_records` equals the sum of the loaded lengths,
//! so an entry whose `records` disagrees with its file is rerun, never
//! adopted. The iteration count is fixed, so the run is the same
//! everywhere.

use measure::campaign::{Campaign, CheckpointManifest, Plan, DEFAULT_RETRY_BUDGET};
use measure::dataset::{encode_session, Dataset};
use measure::executor::Executor;
use measure::fault::FaultConfig;
use operators::Operator;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The chaos rates of `tests/chaos.rs`.
const CHAOS: FaultConfig =
    FaultConfig { gap_rate: 0.5, abort_rate: 0.3, corrupt_rate: 0.02, panic_rate: 0.3 };

/// Three short V_It sessions whose chaos plans gap, abort and corrupt
/// records, so `stats.seen`, `stats.forwarded` and `records` differ.
fn campaign() -> Campaign {
    Campaign {
        operator: Operator::VodafoneItaly,
        sessions: 3,
        session_duration_s: 0.2,
        base_seed: 14,
    }
}

fn plan() -> Plan {
    Plan { executor: Executor::new(2), faults: CHAOS, retry_budget: DEFAULT_RETRY_BUDGET }
}

fn resume(dir: &Path) -> std::io::Result<measure::CampaignOutcome> {
    let c = campaign();
    plan().run_checkpointed(dir, &c.specs(), &c.checkpoint_description())
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("midband5g-ckpt-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every session file under `dir/sessions`, by name.
fn session_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("sessions"))
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (path.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(&path).unwrap())
        })
        .collect()
}

/// One mutation of `bytes`: a bit flip, a truncation, or a digit edit.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
    match rng.below(5) {
        0 => {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        _ if !digits.is_empty() => {
            let at = digits[rng.below(digits.len())];
            let digit = b'0' + rng.below(10) as u8;
            match rng.below(3) {
                0 => bytes[at] = digit,
                1 => bytes.insert(at, digit),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        _ => {}
    }
}

/// Check the finished directory against the clean run's sessions.
fn check_finished(dir: &Path, clean: &BTreeMap<String, Vec<u8>>, label: &str) {
    let ds = Dataset::at(dir);
    let manifest = ds.manifest().unwrap_or_else(|e| panic!("{label}: manifest: {e}"));
    let mut loaded_records = 0u64;
    for name in &manifest.sessions {
        let record = ds.load_session(name).unwrap_or_else(|e| panic!("{label}: {name}: {e}"));
        loaded_records += record.trace.len() as u64;
        let expected = clean.get(name).unwrap_or_else(|| panic!("{label}: unknown session {name}"));
        assert_eq!(
            &encode_session(&record.spec, &record.trace),
            expected,
            "{label}: {name} differs from the clean run"
        );
    }
    assert_eq!(manifest.total_records, loaded_records, "{label}: total_records");
    assert_eq!(manifest.sessions.len(), clean.len(), "{label}: survivors");
}

#[test]
fn mutated_checkpoints_resume_to_the_clean_sessions() {
    const ITERATIONS: u64 = 100;
    let dir = tmpdir("mutate");
    resume(&dir).expect("clean checkpointed run");
    let clean_ckpt = std::fs::read(dir.join("checkpoint.json")).unwrap();
    let clean_sessions = session_files(&dir);
    let clean_manifest: CheckpointManifest =
        serde_json::from_str(std::str::from_utf8(&clean_ckpt).unwrap()).unwrap();
    assert!(
        clean_manifest.entries.iter().any(|e| e.stats.seen != e.stats.forwarded),
        "the chaos plan drops records somewhere"
    );

    let mut rng = SplitMix64(0xc4ec_9017_f022);
    let mut forged_records = 0;
    for iteration in 0..ITERATIONS {
        let mut bytes = clean_ckpt.clone();
        for _ in 0..1 + rng.below(2) {
            mutate(&mut rng, &mut bytes);
        }
        let forged = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| serde_json::from_str::<CheckpointManifest>(text).ok())
            .is_some_and(|m| {
                m.entries.iter().zip(&clean_manifest.entries).any(|(a, b)| a.records != b.records)
            });
        forged_records += usize::from(forged);
        std::fs::write(dir.join("checkpoint.json"), &bytes).unwrap();

        let label = format!("iteration {iteration}");
        match catch_unwind(AssertUnwindSafe(|| resume(&dir))) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => panic!("{label}: resume failed: {e}"),
            Err(_) => panic!("{label}: resume panicked"),
        }
        check_finished(&dir, &clean_sessions, &label);
    }
    assert!(forged_records > 0, "no iteration forged a record count");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint entry naming a file outside `sessions/` — even one that
/// decodes to exactly the right spec — is never adopted: the session
/// reruns and the finished manifest names only the plain file.
#[test]
fn out_of_tree_entry_names_are_rerun_not_adopted() {
    let dir = tmpdir("escape");
    resume(&dir).expect("clean checkpointed run");
    let clean_sessions = session_files(&dir);
    let ckpt_path = dir.join("checkpoint.json");
    let mut ckpt: CheckpointManifest =
        serde_json::from_str(&std::fs::read_to_string(&ckpt_path).unwrap()).unwrap();
    let name = ckpt.entries[0].name.clone();
    let outside = dir.join("outside.kpi");
    std::fs::rename(dir.join("sessions").join(&name), &outside).unwrap();

    for forged in ["../outside.kpi".to_string(), outside.to_string_lossy().into_owned()] {
        ckpt.entries[0].name = forged.clone();
        std::fs::write(&ckpt_path, serde_json::to_string_pretty(&ckpt).unwrap()).unwrap();
        resume(&dir).expect("resume over a forged name");
        let manifest = Dataset::at(&dir).manifest().unwrap();
        assert!(!manifest.sessions.contains(&forged), "{forged} was adopted");
        assert_eq!(std::fs::read(dir.join("sessions").join(&name)).unwrap(), clean_sessions[&name]);
        check_finished(&dir, &clean_sessions, &forged);
        std::fs::remove_file(dir.join("sessions").join(&name)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
