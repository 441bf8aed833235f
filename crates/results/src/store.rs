//! The on-disk run store.
//!
//! Layout — one directory per run under the store root:
//!
//! ```text
//! runs/
//! └── 7f3a9c01d2e4b5f6/          # FNV-1a of (config, dataset) canonical JSON
//!     ├── manifest.json          # config + dataset fingerprint + metadata
//!     ├── result.json            # the SweepResult, losslessly
//!     └── result.csv             # the same numbers as the figures tabulate them
//! ```
//!
//! The run id is content-derived, so launching the same sweep on the
//! same dataset lands on the same directory and becomes a **cache
//! hit**: the caller loads `result.json` instead of recomputing.
//! Writes are atomic at the directory level (staged under a temp name,
//! then renamed in), so a crashed run never masquerades as a hit;
//! stale staging directories a killed process left behind are swept
//! when the store is opened.
//!
//! Every byte under a run directory is a pure function of
//! (config, dataset, result) — no timestamps, wall-clock readings, or
//! scheduling knobs are written. That is what lets the
//! `distributed-determinism` CI job `diff -r` an in-process run
//! directory against a `--listen` one and demand byte equality.
//! Wall-clock metadata lives in the filesystem instead: `fp report
//! --list` reports each run's `manifest.json` modification time.

use crate::csv::sweep_csv;
use crate::hash::{fnv64_hex, Fnv64};
use crate::json::{FromJson, Json, ToJson};
use crate::model::{SweepConfig, SweepResult};
use fp_graph::{Csr, DiGraph, NodeId};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// What a sweep ran *on*: enough structure to key the cache and to
/// audit a stored run without the original input file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetFingerprint {
    /// Human name ("edge-list", "fig5a x/y=1/4", ...).
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Label of the propagation source.
    pub source: String,
    /// FNV-1a over the edge structure (16 hex digits).
    pub edge_hash: String,
}

impl DatasetFingerprint {
    /// Fingerprint a graph: structural hash over node count, the
    /// resolved source index, and every edge in storage order.
    ///
    /// The source *index* must be hashed, not just the display label:
    /// two edge lists can share edge structure and source label while
    /// binding that label to different node indices, and those are
    /// different placement problems.
    pub fn of_graph(name: &str, g: &DiGraph, source: NodeId, source_label: &str) -> Self {
        let mut h = Fnv64::new();
        h.update_u64(g.node_count() as u64);
        h.update_u64(source.index() as u64);
        for (u, v) in g.edges() {
            h.update_u64(u.index() as u64);
            h.update_u64(v.index() as u64);
        }
        Self {
            name: name.to_string(),
            nodes: g.node_count(),
            edges: g.edge_count(),
            source: source_label.to_string(),
            edge_hash: h.finish_hex(),
        }
    }

    /// Fingerprint a CSR graph, hash-compatible with [`of_graph`]:
    /// a CSR built from a `DiGraph` (or from a stream replaying the
    /// same edge sequence) fingerprints identically, because CSR
    /// storage order *is* adjacency-list order — nodes ascending,
    /// out-edges in insertion order.
    ///
    /// [`of_graph`]: DatasetFingerprint::of_graph
    pub fn of_csr(name: &str, csr: &Csr, source: NodeId, source_label: &str) -> Self {
        let mut h = Fnv64::new();
        h.update_u64(csr.node_count() as u64);
        h.update_u64(source.index() as u64);
        for (u, v) in csr.edges() {
            h.update_u64(u.index() as u64);
            h.update_u64(v.index() as u64);
        }
        Self {
            name: name.to_string(),
            nodes: csr.node_count(),
            edges: csr.edge_count(),
            source: source_label.to_string(),
            edge_hash: h.finish_hex(),
        }
    }
}

impl ToJson for DatasetFingerprint {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", self.name.to_json()),
            ("nodes", self.nodes.to_json()),
            ("edges", self.edges.to_json()),
            ("source", self.source.to_json()),
            ("edge_hash", self.edge_hash.to_json()),
        ])
    }
}

impl FromJson for DatasetFingerprint {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            name: v.expect("name")?.as_str().ok_or("bad name")?.to_string(),
            nodes: v.expect("nodes")?.as_usize().ok_or("bad nodes")?,
            edges: v.expect("edges")?.as_usize().ok_or("bad edges")?,
            source: v
                .expect("source")?
                .as_str()
                .ok_or("bad source")?
                .to_string(),
            edge_hash: v
                .expect("edge_hash")?
                .as_str()
                .ok_or("bad edge_hash")?
                .to_string(),
        })
    }
}

/// Everything recorded about a run besides its numbers.
///
/// Deliberately **content-only**: no timestamps, wall-clock readings,
/// or scheduling knobs (`--jobs`/`--listen`), so the manifest bytes —
/// and with them the whole run directory — are identical however and
/// whenever the sweep was computed. When a run happened is filesystem
/// metadata (`fp report --list` shows it); how long it took belongs in
/// `BENCH_baseline.json`-style timing documents, not the store.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// The content-derived run id (also the directory name).
    pub id: String,
    /// Producing tool, e.g. `"fp-results 0.1.0"`.
    pub tool: String,
    /// The sweep configuration.
    pub config: SweepConfig,
    /// What it ran on.
    pub dataset: DatasetFingerprint,
}

impl RunManifest {
    /// Assemble a manifest for a just-finished run.
    pub fn new(config: SweepConfig, dataset: DatasetFingerprint) -> Self {
        Self {
            id: RunStore::run_id(&config, &dataset),
            tool: concat!("fp-results ", env!("CARGO_PKG_VERSION")).to_string(),
            config,
            dataset,
        }
    }
}

impl ToJson for RunManifest {
    fn to_json(&self) -> Json {
        Json::object([
            ("id", self.id.to_json()),
            ("tool", self.tool.to_json()),
            ("config", self.config.to_json()),
            ("dataset", self.dataset.to_json()),
        ])
    }
}

impl FromJson for RunManifest {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            id: v.expect("id")?.as_str().ok_or("bad id")?.to_string(),
            tool: v.expect("tool")?.as_str().ok_or("bad tool")?.to_string(),
            config: SweepConfig::from_json(v.expect("config")?)?,
            dataset: DatasetFingerprint::from_json(v.expect("dataset")?)?,
        })
    }
}

/// Which stored runs [`RunStore::gc`] evicts.
///
/// Both policies order runs by *last use*: saving writes the manifest
/// and every cache-hit [`RunStore::load`] bumps its mtime, so a run
/// that keeps getting hit stays young however long ago it was computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcPolicy {
    /// Keep the `n` most recently used runs, evict the rest.
    KeepNewest(usize),
    /// Evict runs whose last use is older than the given age.
    MaxAge(Duration),
}

/// A run loaded back from disk.
#[derive(Clone, Debug)]
pub struct StoredRun {
    /// The manifest.
    pub manifest: RunManifest,
    /// The numbers.
    pub result: SweepResult,
}

/// One row of [`RunStore::list`].
#[derive(Clone, Debug)]
pub struct RunListEntry {
    /// The run id (directory name).
    pub id: String,
    /// The run's manifest.
    pub manifest: RunManifest,
    /// When the run was last *used*: `manifest.json`'s modification
    /// time, unix seconds (0 when the filesystem cannot say). Saving
    /// sets it; every cache-hit [`RunStore::load`] bumps it, so GC
    /// eviction is least-recently-used. Kept out of the manifest itself
    /// so run-directory bytes stay content-pure.
    pub modified_unix: u64,
}

/// Prefix of staged (not yet renamed-in) run directories.
const STAGING_PREFIX: &str = ".stage-";

/// How old a staging directory must be before [`RunStore::open`]
/// treats it as debris from a killed process and removes it. Young
/// staging dirs may belong to a concurrent writer mid-save, so the
/// sweep leaves them alone.
const STALE_STAGING_AGE: Duration = Duration::from_secs(60 * 60);

/// A directory of runs keyed by content hash.
#[derive(Clone, Debug)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `root`.
    ///
    /// Opening also sweeps staging debris: a process killed mid-save
    /// leaves its `.stage-*` directory behind forever (the rename
    /// never happens), so any staging dir older than an hour is
    /// removed here. Failure to sweep never fails the open.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, String> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        let store = Self { root };
        let _ = store.sweep_staging(STALE_STAGING_AGE);
        Ok(store)
    }

    /// Remove staging directories older than `older_than`; returns how
    /// many were removed. `Duration::ZERO` removes them all (what a
    /// caller that *knows* no concurrent writer exists can use).
    pub fn sweep_staging(&self, older_than: Duration) -> Result<usize, String> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| format!("cannot read store root {}: {e}", self.root.display()))?;
        let now = SystemTime::now();
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            if !name.to_string_lossy().starts_with(STAGING_PREFIX) {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .map(|mtime| now.duration_since(mtime).unwrap_or_default() >= older_than)
                .unwrap_or(true); // unreadable metadata: treat as debris
            if stale && std::fs::remove_dir_all(entry.path()).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Enumerate the complete runs under this root, sorted by id.
    ///
    /// Entries that are not runs (staging debris, loose `*.csv` files
    /// a `repro --out` session wrote, half-written directories) are
    /// skipped, not errors; a corrupt manifest in an otherwise
    /// complete run *is* an error, so damage never hides. Only
    /// `manifest.json` is read — the (much larger) `result.json`
    /// bodies are not touched, so listing a big store stays cheap.
    pub fn list(&self) -> Result<Vec<RunListEntry>, String> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| format!("cannot read store root {}: {e}", self.root.display()))?;
        let mut runs = Vec::new();
        for entry in entries.flatten() {
            let dir = entry.path();
            // A staging dir mid-save (or freshly abandoned) can already
            // hold a full file triple — never list it as a run.
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(STAGING_PREFIX)
            {
                continue;
            }
            let manifest_path = dir.join("manifest.json");
            if !dir.is_dir() || !manifest_path.exists() || !dir.join("result.json").exists() {
                continue;
            }
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
            let manifest = Json::parse(&text)
                .map_err(|e| format!("{}: {e}", manifest_path.display()))
                .and_then(|json| {
                    RunManifest::from_json(&json)
                        .map_err(|e| format!("bad manifest.json in {}: {e}", dir.display()))
                })?;
            let modified_unix = std::fs::metadata(&manifest_path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
                .map(|d| d.as_secs())
                .unwrap_or(0);
            runs.push(RunListEntry {
                id: entry.file_name().to_string_lossy().into_owned(),
                manifest,
                modified_unix,
            });
        }
        runs.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(runs)
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The content-derived id a (config, dataset) pair stores under.
    pub fn run_id(config: &SweepConfig, dataset: &DatasetFingerprint) -> String {
        let key = Json::Array(vec![config.to_json(), dataset.to_json()]);
        fnv64_hex(key.to_compact().as_bytes())
    }

    /// The directory a run id maps to (whether or not it exists yet).
    pub fn run_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Load a run by id; `Ok(None)` when it has never been stored.
    ///
    /// A successful load is a *use*: the manifest's mtime is bumped so
    /// [`RunStore::gc`] treats frequently-hit runs as young. Only
    /// filesystem metadata moves — the stored bytes stay content-pure.
    pub fn load(&self, id: &str) -> Result<Option<StoredRun>, String> {
        let dir = self.run_dir(id);
        if !dir.join("result.json").exists() || !dir.join("manifest.json").exists() {
            return Ok(None);
        }
        let run = Self::load_dir(&dir)?;
        Self::touch(&dir.join("manifest.json"));
        Ok(Some(run))
    }

    /// Best-effort mtime bump (an unwritable store still serves hits).
    fn touch(path: &Path) {
        if let Ok(f) = std::fs::OpenOptions::new().append(true).open(path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }

    /// Evict stored runs according to `policy`; returns the evicted
    /// entries (already removed from disk). Incomplete directories and
    /// loose CSVs are never touched — only what [`RunStore::list`]
    /// reports is eligible.
    pub fn gc(&self, policy: GcPolicy) -> Result<Vec<RunListEntry>, String> {
        // Order by the manifest's *full-precision* mtime, not the
        // second-truncated `modified_unix`: a cache hit and a save in
        // the same second must still rank by which happened later, or
        // the just-hit run could lose a tie and be evicted. Ties that
        // survive full precision (coarse filesystems) break toward the
        // lexicographically larger id so the order is deterministic.
        let mut runs: Vec<(SystemTime, RunListEntry)> = self
            .list()?
            .into_iter()
            .map(|run| {
                let mtime = std::fs::metadata(self.run_dir(&run.id).join("manifest.json"))
                    .and_then(|m| m.modified())
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                (mtime, run)
            })
            .collect();
        runs.sort_by(|(ta, a), (tb, b)| tb.cmp(ta).then_with(|| b.id.cmp(&a.id)));
        let evict: Vec<RunListEntry> = match policy {
            GcPolicy::KeepNewest(n) => runs
                .split_off(n.min(runs.len()))
                .into_iter()
                .map(|(_, run)| run)
                .collect(),
            GcPolicy::MaxAge(age) => {
                // Saturate absurd ages at the epoch (= evict nothing).
                let cutoff = SystemTime::now()
                    .checked_sub(age)
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                runs.into_iter()
                    .filter(|(mtime, _)| *mtime < cutoff)
                    .map(|(_, run)| run)
                    .collect()
            }
        };
        for run in &evict {
            let dir = self.run_dir(&run.id);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot evict {}: {e}", dir.display()))?;
        }
        Ok(evict)
    }

    /// Load a run directly from its directory (what `fp report --run`
    /// does; works on any run dir, not just ones under this root).
    pub fn load_dir(dir: &Path) -> Result<StoredRun, String> {
        let read = |file: &str| -> Result<Json, String> {
            let path = dir.join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        };
        Ok(StoredRun {
            manifest: RunManifest::from_json(&read("manifest.json")?)
                .map_err(|e| format!("bad manifest.json: {e}"))?,
            result: SweepResult::from_json(&read("result.json")?)
                .map_err(|e| format!("bad result.json: {e}"))?,
        })
    }

    /// Persist a finished run; returns its directory.
    ///
    /// Staged into a temp directory and renamed in so readers never see
    /// a half-written run. If the run already exists (a concurrent
    /// writer won the race), the existing directory is kept.
    pub fn save(&self, manifest: &RunManifest, result: &SweepResult) -> Result<PathBuf, String> {
        let final_dir = self.run_dir(&manifest.id);
        let stage = self.root.join(format!(
            "{STAGING_PREFIX}{}-{}",
            manifest.id,
            std::process::id()
        ));
        let write = |file: &str, contents: &str| -> Result<(), String> {
            let path = stage.join(file);
            std::fs::write(&path, contents)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        std::fs::create_dir_all(&stage)
            .map_err(|e| format!("cannot create {}: {e}", stage.display()))?;
        let outcome = (|| {
            write("manifest.json", &manifest.to_json().to_pretty())?;
            write("result.json", &result.to_json().to_pretty())?;
            write("result.csv", &sweep_csv(result))?;
            match std::fs::rename(&stage, &final_dir) {
                Ok(()) => Ok(()),
                // Lost a race with an identical run: keep the winner.
                Err(_) if final_dir.join("result.json").exists() => {
                    let _ = std::fs::remove_dir_all(&stage);
                    Ok(())
                }
                Err(e) => Err(format!("cannot finalize {}: {e}", final_dir.display())),
            }
        })();
        if outcome.is_err() {
            let _ = std::fs::remove_dir_all(&stage);
        }
        outcome.map(|()| final_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SolverSeries;
    use fp_algorithms::SolverKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store() -> (RunStore, PathBuf) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fp-results-store-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (RunStore::open(&dir).unwrap(), dir)
    }

    fn sample() -> (SweepConfig, DatasetFingerprint, SweepResult) {
        let config = SweepConfig {
            ks: vec![0, 1, 2],
            trials: 2,
            seed: 42,
            solvers: vec![SolverKind::GreedyAll, SolverKind::RandK],
        };
        let dataset = DatasetFingerprint {
            name: "unit".into(),
            nodes: 7,
            edges: 9,
            source: "s".into(),
            edge_hash: "00deadbeef00cafe".into(),
        };
        let result = SweepResult {
            series: vec![
                SolverSeries {
                    label: "G_ALL".into(),
                    points: vec![(0, 0.0), (1, 1.0 / 3.0), (2, 1.0)],
                },
                SolverSeries {
                    label: "Rand_K".into(),
                    points: vec![(0, 0.0), (1, 0.125), (2, 0.5)],
                },
            ],
        };
        (config, dataset, result)
    }

    #[test]
    fn save_then_load_roundtrips() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config.clone(), dataset.clone());
        let run_dir = store.save(&manifest, &result).unwrap();
        assert!(run_dir.join("manifest.json").exists());
        assert!(run_dir.join("result.json").exists());
        assert!(run_dir.join("result.csv").exists());

        let id = RunStore::run_id(&config, &dataset);
        let loaded = store.load(&id).unwrap().expect("stored run found");
        assert_eq!(loaded.manifest, manifest);
        assert_eq!(loaded.result, result);
        // Bit-exact FR floats through the round trip.
        assert_eq!(
            loaded.result.series[0].points[1].1.to_bits(),
            (1.0f64 / 3.0).to_bits()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn run_ids_are_content_derived() {
        let (config, dataset, _) = sample();
        let id1 = RunStore::run_id(&config, &dataset);
        let id2 = RunStore::run_id(&config.clone(), &dataset.clone());
        assert_eq!(id1, id2, "same content, same id");
        assert_eq!(id1.len(), 16);

        let mut other = config.clone();
        other.seed = 43;
        assert_ne!(
            RunStore::run_id(&other, &dataset),
            id1,
            "config changes the id"
        );
        let mut other_ds = dataset.clone();
        other_ds.edge_hash = "ffffffffffffffff".into();
        assert_ne!(
            RunStore::run_id(&config, &other_ds),
            id1,
            "dataset changes the id"
        );
    }

    #[test]
    fn missing_run_is_none_not_error() {
        let (store, dir) = temp_store();
        assert!(store.load("0123456789abcdef").unwrap().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn half_written_run_is_not_a_hit() {
        let (store, dir) = temp_store();
        let (config, dataset, _) = sample();
        let id = RunStore::run_id(&config, &dataset);
        // Simulate a crash that left only a manifest behind.
        std::fs::create_dir_all(store.run_dir(&id)).unwrap();
        std::fs::write(store.run_dir(&id).join("manifest.json"), "{}").unwrap();
        assert!(store.load(&id).unwrap().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_json_is_a_described_error() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config, dataset);
        let run_dir = store.save(&manifest, &result).unwrap();
        std::fs::write(run_dir.join("result.json"), "{not json").unwrap();
        let err = store.load(&manifest.id).unwrap_err();
        assert!(err.contains("result.json"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_matches_the_result() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config, dataset);
        let run_dir = store.save(&manifest, &result).unwrap();
        let csv = std::fs::read_to_string(run_dir.join("result.csv")).unwrap();
        assert_eq!(csv, sweep_csv(&result));
        assert!(csv.starts_with("k,G_ALL,Rand_K\n"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn graph_fingerprints_see_structure() {
        use fp_graph::{DiGraph, NodeId};
        let a = DiGraph::from_pairs(3, [(0, 1), (1, 2)]).unwrap();
        let b = DiGraph::from_pairs(3, [(0, 1), (0, 2)]).unwrap();
        let fa = DatasetFingerprint::of_graph("a", &a, NodeId::new(0), "s");
        let fb = DatasetFingerprint::of_graph("b", &b, NodeId::new(0), "s");
        assert_ne!(fa.edge_hash, fb.edge_hash);
        assert_eq!(fa.nodes, 3);
        assert_eq!(fa.edges, 2);
        let fa2 = DatasetFingerprint::of_graph("a", &a, NodeId::new(0), "s");
        assert_eq!(fa.edge_hash, fa2.edge_hash);
    }

    #[test]
    fn csr_fingerprint_matches_graph_fingerprint() {
        use fp_graph::{Csr, DiGraph, NodeId};
        let g = DiGraph::from_pairs(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let csr = Csr::from_digraph(&g);
        let from_graph = DatasetFingerprint::of_graph("g", &g, NodeId::new(0), "s");
        let from_csr = DatasetFingerprint::of_csr("g", &csr, NodeId::new(0), "s");
        assert_eq!(from_graph, from_csr);
    }

    #[test]
    fn manifest_and_run_directory_bytes_are_content_pure() {
        // Saving the same (config, dataset, result) twice — even from
        // "different schedulers" — must produce identical bytes in
        // every file; the distributed-determinism CI gate rests on it.
        let (store_a, dir_a) = temp_store();
        let (store_b, dir_b) = temp_store();
        let (config, dataset, result) = sample();
        let run_a = store_a
            .save(&RunManifest::new(config.clone(), dataset.clone()), &result)
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let run_b = store_b
            .save(&RunManifest::new(config, dataset), &result)
            .unwrap();
        for file in ["manifest.json", "result.json", "result.csv"] {
            assert_eq!(
                std::fs::read(run_a.join(file)).unwrap(),
                std::fs::read(run_b.join(file)).unwrap(),
                "{file} must be byte-identical"
            );
        }
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }

    #[test]
    fn list_enumerates_complete_runs_and_skips_debris() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config.clone(), dataset.clone());
        store.save(&manifest, &result).unwrap();

        // Debris that must not appear: a half-written run, a loose
        // csv, and a staging dir.
        std::fs::create_dir_all(store.root().join("deadbeef00000000")).unwrap();
        std::fs::write(
            store.root().join("deadbeef00000000/manifest.json"),
            manifest.to_json().to_pretty(),
        )
        .unwrap();
        std::fs::write(store.root().join("fig04a.csv"), "k,count\n").unwrap();
        std::fs::create_dir_all(store.root().join(".stage-zzz-1")).unwrap();
        // A staging dir holding a *complete* file triple (killed just
        // before the rename) must still be skipped, not listed.
        let mid_save = store
            .root()
            .join(format!("{}{}-999", ".stage-", manifest.id));
        std::fs::create_dir_all(&mid_save).unwrap();
        for file in ["manifest.json", "result.json", "result.csv"] {
            std::fs::copy(store.run_dir(&manifest.id).join(file), mid_save.join(file)).unwrap();
        }

        let runs = store.list().unwrap();
        assert_eq!(runs.len(), 1, "{runs:?}");
        assert_eq!(runs[0].id, manifest.id);
        assert_eq!(runs[0].manifest.dataset.name, "unit");
        assert_eq!(runs[0].manifest.config.solvers.len(), 2);
        assert!(runs[0].modified_unix > 0, "mtime should be readable");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_reads_manifests_only_so_corrupt_results_do_not_block_it() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config, dataset);
        let run_dir = store.save(&manifest, &result).unwrap();
        // Damage the (large) result body: listing must still work —
        // it renders manifest fields only and never parses results.
        std::fs::write(run_dir.join("result.json"), "{broken").unwrap();
        let runs = store.list().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].id, manifest.id);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_surfaces_corrupt_manifests_instead_of_hiding_them() {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let manifest = RunManifest::new(config, dataset);
        let run_dir = store.save(&manifest, &result).unwrap();
        std::fs::write(run_dir.join("manifest.json"), "{broken").unwrap();
        let err = store.list().unwrap_err();
        assert!(err.contains("manifest.json"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn staging_debris_is_swept() {
        let (store, dir) = temp_store();
        let stale = store.root().join(".stage-dead-12345");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::write(stale.join("manifest.json"), "{}").unwrap();

        // Fresh debris survives an open (a concurrent writer could
        // still own it)...
        let reopened = RunStore::open(store.root()).unwrap();
        assert!(stale.exists(), "fresh staging dir must survive open");

        // ...but an explicit zero-age sweep removes it, runs untouched.
        let (config, dataset, result) = sample();
        reopened
            .save(&RunManifest::new(config, dataset), &result)
            .unwrap();
        let removed = reopened.sweep_staging(Duration::ZERO).unwrap();
        assert_eq!(removed, 1);
        assert!(!stale.exists());
        assert_eq!(reopened.list().unwrap().len(), 1, "real runs survive");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Pin a run's last-use time (seconds ago) directly on disk.
    fn age_run(store: &RunStore, id: &str, secs_ago: u64) {
        let manifest = store.run_dir(id).join("manifest.json");
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(&manifest)
            .unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(secs_ago))
            .unwrap();
    }

    /// Three runs with distinct configs, last used 3000/2000/1000
    /// seconds ago (oldest first in the returned vec).
    fn store_with_aged_runs() -> (RunStore, PathBuf, Vec<String>) {
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let mut ids = Vec::new();
        for (i, secs_ago) in [3000u64, 2000, 1000].into_iter().enumerate() {
            let mut cfg = config.clone();
            cfg.seed = 100 + i as u64;
            let manifest = RunManifest::new(cfg, dataset.clone());
            store.save(&manifest, &result).unwrap();
            age_run(&store, &manifest.id, secs_ago);
            ids.push(manifest.id);
        }
        (store, dir, ids)
    }

    #[test]
    fn gc_keep_newest_evicts_least_recently_used() {
        let (store, dir, ids) = store_with_aged_runs();
        let evicted = store.gc(GcPolicy::KeepNewest(2)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, ids[0], "oldest run goes first");
        assert!(!store.run_dir(&ids[0]).exists());
        let left: Vec<String> = store.list().unwrap().into_iter().map(|r| r.id).collect();
        assert_eq!(left.len(), 2);
        assert!(left.contains(&ids[1]) && left.contains(&ids[2]));
        // Keeping at least as many as exist evicts nothing.
        assert!(store.gc(GcPolicy::KeepNewest(5)).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_max_age_evicts_by_last_use() {
        let (store, dir, ids) = store_with_aged_runs();
        let evicted = store
            .gc(GcPolicy::MaxAge(Duration::from_secs(2500)))
            .unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, ids[0]);
        let evicted = store
            .gc(GcPolicy::MaxAge(Duration::from_secs(500)))
            .unwrap();
        assert_eq!(evicted.len(), 2, "both remaining runs are older than 500s");
        assert!(store.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cache_hits_survive_eviction_ordering() {
        // The oldest-*stored* run is re-used (cache hit) just before a
        // gc; the hit must refresh its position so it survives and the
        // stale-but-never-hit run is evicted instead.
        let (store, dir, ids) = store_with_aged_runs();
        let hit = store.load(&ids[0]).unwrap().expect("stored run");
        assert_eq!(hit.manifest.id, ids[0]);
        let evicted = store.gc(GcPolicy::KeepNewest(2)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(
            evicted[0].id, ids[1],
            "the untouched middle run is now the LRU victim"
        );
        assert!(
            store.run_dir(&ids[0]).exists(),
            "the cache-hit run must survive"
        );
        // And the hit run's directory bytes are untouched (only mtime
        // moved): it still loads and matches the original result.
        assert!(store.load(&ids[0]).unwrap().is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn same_second_cache_hit_still_wins_the_eviction_tie() {
        // Save A, save B, hit A — all within one second. The hit must
        // rank A as most recently used (full-precision mtimes, not the
        // second-truncated listing column), so B is the LRU victim.
        let (store, dir) = temp_store();
        let (config, dataset, result) = sample();
        let mut ids = Vec::new();
        for seed in [100u64, 101] {
            let mut cfg = config.clone();
            cfg.seed = seed;
            let manifest = RunManifest::new(cfg, dataset.clone());
            store.save(&manifest, &result).unwrap();
            ids.push(manifest.id);
        }
        store.load(&ids[0]).unwrap().expect("stored run");
        let mtime = |id: &str| {
            std::fs::metadata(store.run_dir(id).join("manifest.json"))
                .and_then(|m| m.modified())
                .unwrap()
        };
        if mtime(&ids[0]) <= mtime(&ids[1]) {
            // Coarse-mtime filesystem: the bump is invisible within one
            // second and the ordering claim cannot be observed here.
            let _ = std::fs::remove_dir_all(dir);
            return;
        }
        let evicted = store.gc(GcPolicy::KeepNewest(1)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].id, ids[1], "the unused run is the victim");
        assert!(store.run_dir(&ids[0]).exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_leaves_non_run_entries_alone() {
        let (store, dir, _ids) = store_with_aged_runs();
        std::fs::write(store.root().join("fig04a.csv"), "k,count\n").unwrap();
        std::fs::create_dir_all(store.root().join(".stage-zzz-1")).unwrap();
        let evicted = store.gc(GcPolicy::KeepNewest(0)).unwrap();
        assert_eq!(evicted.len(), 3, "all runs evicted");
        assert!(store.root().join("fig04a.csv").exists());
        assert!(store.root().join(".stage-zzz-1").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn graph_fingerprints_see_the_source_index() {
        use fp_graph::{DiGraph, NodeId};
        // Same edge structure, same label — but the label binds to a
        // different node. Must NOT collide (it is a different problem).
        let g = DiGraph::from_pairs(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        let at0 = DatasetFingerprint::of_graph("g", &g, NodeId::new(0), "s");
        let at1 = DatasetFingerprint::of_graph("g", &g, NodeId::new(1), "s");
        assert_ne!(at0.edge_hash, at1.edge_hash);
    }
}
