//! The experiment data model: sweep configuration and results.
//!
//! These types started life in `fp-core::experiment` with marker-only
//! serde derives; they live here now so the derives are backed by a
//! working serializer ([`ToJson`]/[`FromJson`]) and so the store and
//! runner can use them without a dependency cycle (`fp-core` depends on
//! this crate, not the reverse). `fp-core::experiment` re-exports them,
//! so downstream paths are unchanged.

use crate::json::{FromJson, Json, ToJson};
use fp_algorithms::SolverKind;
use serde::{Deserialize, Serialize};

/// Configuration of one FR sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Budgets to evaluate (x-axis of the figures).
    pub ks: Vec<usize>,
    /// Trials per budget for randomized solvers (paper: 25).
    pub trials: usize,
    /// Base seed for the randomized solvers.
    pub seed: u64,
    /// Solvers to compare.
    pub solvers: Vec<SolverKind>,
}

impl SweepConfig {
    /// The paper's seven-algorithm comparison over `0..=k_max`
    /// (step chosen to keep ~11 points on the curve).
    pub fn paper(k_max: usize) -> Self {
        let step = (k_max / 10).max(1);
        let mut ks: Vec<usize> = (0..=k_max).step_by(step).collect();
        if *ks.last().unwrap() != k_max {
            ks.push(k_max);
        }
        Self {
            ks,
            trials: 25,
            seed: 0xF1157E5,
            solvers: SolverKind::PAPER_SET.to_vec(),
        }
    }
}

/// One solver's FR curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverSeries {
    /// Legend label (e.g. `"G_ALL"`).
    pub label: String,
    /// `(k, mean FR)` points.
    pub points: Vec<(usize, f64)>,
}

/// The result of a sweep run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// One series per solver, in configuration order.
    pub series: Vec<SolverSeries>,
}

impl SweepResult {
    /// The series for a given label, if present.
    pub fn series_for(&self, label: &str) -> Option<&SolverSeries> {
        self.series.iter().find(|s| s.label == label)
    }
}

impl ToJson for SolverKind {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

impl FromJson for SolverKind {
    fn from_json(v: &Json) -> Result<Self, String> {
        let label = v.as_str().ok_or("solver must be a string label")?;
        SolverKind::from_label(label)
    }
}

impl ToJson for SweepConfig {
    fn to_json(&self) -> Json {
        Json::object([
            ("ks", self.ks.to_json()),
            ("trials", self.trials.to_json()),
            ("seed", self.seed.to_json()),
            ("solvers", self.solvers.to_json()),
        ])
    }
}

impl FromJson for SweepConfig {
    fn from_json(v: &Json) -> Result<Self, String> {
        let ks = v
            .expect("ks")?
            .as_array()
            .ok_or("ks must be an array")?
            .iter()
            .map(|k| k.as_usize().ok_or_else(|| format!("bad k: {k:?}")))
            .collect::<Result<Vec<_>, _>>()?;
        let trials = v.expect("trials")?.as_usize().ok_or("bad trials")?;
        let seed = v.expect("seed")?.as_u64().ok_or("bad seed")?;
        let solvers = v
            .expect("solvers")?
            .as_array()
            .ok_or("solvers must be an array")?
            .iter()
            .map(SolverKind::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            ks,
            trials,
            seed,
            solvers,
        })
    }
}

impl ToJson for SolverSeries {
    fn to_json(&self) -> Json {
        Json::object([
            ("label", self.label.to_json()),
            (
                "points",
                Json::Array(
                    self.points
                        .iter()
                        .map(|&(k, fr)| Json::Array(vec![k.to_json(), fr.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for SolverSeries {
    fn from_json(v: &Json) -> Result<Self, String> {
        let label = v
            .expect("label")?
            .as_str()
            .ok_or("label must be a string")?
            .to_string();
        let points = v
            .expect("points")?
            .as_array()
            .ok_or("points must be an array")?
            .iter()
            .map(|p| {
                let pair = p.as_array().filter(|a| a.len() == 2);
                let pair = pair.ok_or_else(|| format!("point must be [k, fr]: {p:?}"))?;
                let k = pair[0].as_usize().ok_or("bad point k")?;
                let fr = pair[1].as_f64().ok_or("bad point fr")?;
                Ok::<_, String>((k, fr))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { label, points })
    }
}

impl ToJson for SweepResult {
    fn to_json(&self) -> Json {
        Json::object([(
            "series",
            Json::Array(self.series.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for SweepResult {
    fn from_json(v: &Json) -> Result<Self, String> {
        let series = v
            .expect("series")?
            .as_array()
            .ok_or("series must be an array")?
            .iter()
            .map(SolverSeries::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> SweepResult {
        SweepResult {
            series: vec![
                SolverSeries {
                    label: "G_ALL".into(),
                    points: vec![(0, 0.0), (5, 2.0 / 3.0)],
                },
                SolverSeries {
                    label: "Rand_K".into(),
                    points: vec![(0, 0.0), (5, 0.25)],
                },
            ],
        }
    }

    #[test]
    fn config_roundtrips_through_json_text() {
        let cfg = SweepConfig::paper(50);
        let text = cfg.to_json().to_pretty();
        let back = SweepConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn config_with_extreme_seed_roundtrips() {
        let cfg = SweepConfig {
            ks: vec![0, 3, 10_000],
            trials: 1,
            seed: u64::MAX,
            solvers: vec![SolverKind::GreedyL, SolverKind::Betweenness],
        };
        let back =
            SweepConfig::from_json(&Json::parse(&cfg.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn result_roundtrips_bit_exactly() {
        let res = sample_result();
        let text = res.to_json().to_pretty();
        let back = SweepResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, res);
        // 2/3 is not representable exactly in decimal with few digits —
        // the shortest-round-trip writer must still recover the bits.
        let orig = res.series[0].points[1].1;
        let recovered = back.series[0].points[1].1;
        assert_eq!(orig.to_bits(), recovered.to_bits());
    }

    #[test]
    fn solver_labels_roundtrip() {
        for kind in SolverKind::ALL {
            let back = SolverKind::from_json(&kind.to_json()).unwrap();
            assert_eq!(back, kind);
        }
        assert!(SolverKind::from_json(&Json::Str("G_ALL(lazy)".into())).is_err());
        let lower = SolverKind::from_json(&Json::Str("g_all".into())).unwrap();
        assert_eq!(lower, SolverKind::GreedyAll);
    }

    #[test]
    fn deserializer_reports_bad_fields() {
        let bad = Json::parse("{\"ks\":[1],\"trials\":3,\"seed\":\"x\",\"solvers\":[]}").unwrap();
        let err = SweepConfig::from_json(&bad).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let missing = Json::parse("{}").unwrap();
        assert!(SweepResult::from_json(&missing)
            .unwrap_err()
            .contains("series"));
    }

    #[test]
    fn series_lookup() {
        let res = sample_result();
        assert!(res.series_for("G_ALL").is_some());
        assert!(res.series_for("G_Max").is_none());
    }

    #[test]
    fn paper_config_has_the_seven_solvers() {
        let cfg = SweepConfig::paper(50);
        assert_eq!(cfg.solvers.len(), 7);
        assert_eq!(cfg.trials, 25);
        assert_eq!(*cfg.ks.last().unwrap(), 50);
        assert_eq!(cfg.ks[0], 0);
    }
}
