//! Configuration of the full Anole pipeline.

use anole_cache::EvictionPolicy;
use anole_nn::{OptimizerKind, TrainConfig};

/// Scene-encoder (`M_scene`) hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneModelConfig {
    /// Width of the first hidden layer.
    pub hidden: usize,
    /// Width of the embedding layer (the representation Algorithm 1
    /// clusters).
    pub embedding: usize,
    /// Training schedule.
    pub train: TrainConfig,
}

anole_json::json_struct!(SceneModelConfig { hidden, embedding, train });

impl Default for SceneModelConfig {
    fn default() -> Self {
        Self {
            hidden: 64,
            embedding: 32,
            train: TrainConfig {
                epochs: 40,
                batch_size: 64,
                optimizer: OptimizerKind::Adam { lr: 5e-3 },
            },
        }
    }
}

/// Compressed-detector hyper-parameters (the YOLOv3-tiny stand-ins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Hidden width of a compressed detector.
    pub compressed_hidden: usize,
    /// Hidden width of the deep (SDM) detector.
    pub deep_hidden: usize,
    /// Number of hidden layers of the deep detector.
    pub deep_layers: usize,
    /// Positive-cell weight in every detector's BCE loss.
    pub pos_weight: f32,
    /// Detection probability threshold.
    pub threshold: f32,
    /// Training schedule for compressed detectors.
    pub train: TrainConfig,
}

anole_json::json_struct!(DetectorConfig {
    compressed_hidden,
    deep_hidden,
    deep_layers,
    pos_weight,
    threshold,
    train,
});

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            compressed_hidden: 48,
            deep_hidden: 96,
            deep_layers: 2,
            pos_weight: 2.0,
            threshold: 0.5,
            train: TrainConfig {
                epochs: 30,
                batch_size: 64,
                optimizer: OptimizerKind::Adam { lr: 5e-3 },
            },
        }
    }
}

/// Algorithm 1 (model repository) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepositoryConfig {
    /// Target number of compressed models `n` (paper: 19).
    pub target_models: usize,
    /// Validation-F1 acceptance threshold δ.
    pub delta: f32,
}

anole_json::json_struct!(RepositoryConfig { target_models, delta });

impl Default for RepositoryConfig {
    fn default() -> Self {
        Self {
            target_models: 19,
            delta: 0.30,
        }
    }
}

/// Adaptive scene sampling (§IV-B) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Well-sampledness confidence θ.
    pub theta: f64,
    /// Total sample budget κ.
    pub kappa: usize,
    /// Per-frame F1 above which a model "predicts the sample well".
    pub accept_f1: f32,
    /// Per-arm draw cap: an arm also leaves the selection pool after this
    /// many draws, keeping the finite κ budget from being monopolized by
    /// one arm before its coupon-collector threshold is met.
    pub max_draws_per_arm: usize,
}

anole_json::json_struct!(SamplingConfig { theta, kappa, accept_f1, max_draws_per_arm });

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            theta: 0.9,
            kappa: 12000,
            accept_f1: 0.5,
            max_draws_per_arm: 600,
        }
    }
}

/// Decision-model (§IV-C) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionConfig {
    /// Hidden width of the decision head (paper: a 2-layer MLP).
    pub head_hidden: usize,
    /// When the top-1 suitability probability falls below this confidence,
    /// the engine hedges by fusing the detection maps of the top
    /// [`DecisionConfig::hedge_top_k`] cached models (§II case 3: low
    /// confidence signals that no single well-fitting model exists).
    /// `0.0` disables hedging.
    pub confidence_threshold: f32,
    /// Number of cached models fused on low-confidence frames.
    pub hedge_top_k: usize,
    /// Training schedule.
    pub train: TrainConfig,
}

anole_json::json_struct!(DecisionConfig { head_hidden, confidence_threshold, hedge_top_k, train });

impl Default for DecisionConfig {
    fn default() -> Self {
        Self {
            head_hidden: 64,
            confidence_threshold: 0.45,
            hedge_top_k: 2,
            train: TrainConfig {
                epochs: 40,
                batch_size: 64,
                optimizer: OptimizerKind::Adam { lr: 5e-3 },
            },
        }
    }
}

/// Model-cache (§V-B) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Number of compressed models kept in GPU memory.
    pub capacity: usize,
    /// Eviction policy (paper: LFU).
    pub policy: EvictionPolicy,
    /// Optional resident-byte ceiling for the model cache. `None` keeps the
    /// paper's pure slot-count semantics; with `Some(bytes)` every cached
    /// model charges its serving-precision footprint
    /// ([`CompressedModel::serving_bytes`](crate::osp::CompressedModel::serving_bytes)),
    /// so int8 detectors pack 3.4× denser than their f32 twins. Deserializes to
    /// `None` from configs saved before byte accounting existed.
    pub byte_budget: Option<u64>,
}

anole_json::json_struct!(CacheConfig { capacity, policy, byte_budget });

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 5,
            policy: EvictionPolicy::Lfu,
            byte_budget: None,
        }
    }
}

/// Int8 serving (quantization) parameters, read by
/// [`AnoleSystem::quantize_models`](crate::AnoleSystem::quantize_models).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Acceptance gate ε: a specialist whose validation F1 drops by more
    /// than this when served at int8 keeps serving at fp32. The decision
    /// model uses the same ε as a top-1 agreement bound (quantized routing
    /// must agree with fp32 routing on at least `1 − ε` of the gate set).
    pub epsilon_f1: f32,
}

anole_json::json_struct!(QuantConfig { epsilon_f1 });

impl Default for QuantConfig {
    fn default() -> Self {
        Self { epsilon_f1: 0.02 }
    }
}

/// Error budget of the shed-ratio objective
/// (`gateway.frames.shed / gateway.frames.total`).
const SHED_BUDGET: f64 = 0.05;

/// Quantile of the step-latency objective.
const LATENCY_QUANTILE: f64 = 0.99;

/// Serving SLO parameters: the declarative objectives the fleet gateway
/// and the continual-learning canary gate evaluate with multi-window
/// burn-rate alerting ([`SloEngine`](anole_obs::SloEngine)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Whether SLO evaluation is armed: the lifecycle builds specs from
    /// this section for canary gating and fleet serving. Off by default.
    pub enabled: bool,
    /// Latency limit (virtual ms) the p99 step latency must stay under.
    pub latency_limit_ms: f64,
    /// Frames per canary device the re-profiling rollout serves through an
    /// SLO-armed gateway before promotion; a page during that run rolls the
    /// candidate back.
    pub canary_frames: usize,
}

anole_json::json_struct!(SloConfig { enabled, latency_limit_ms, canary_frames });

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            latency_limit_ms: 150.0,
            canary_frames: 32,
        }
    }
}

impl SloConfig {
    /// The standard spec pair every SLO-armed gateway evaluates: the
    /// shed-ratio objective and the step-latency quantile objective, both
    /// resolved against the gateway's synthetic per-run series, with
    /// [`SloSpec`](anole_obs::SloSpec)'s default burn rates and long window.
    pub fn specs(&self) -> Vec<anole_obs::SloSpec> {
        vec![
            anole_obs::SloSpec::error_ratio(
                "gateway-shed-ratio",
                "gateway.frames.shed",
                "gateway.frames.total",
                SHED_BUDGET,
            ),
            anole_obs::SloSpec::quantile(
                "gateway-step-latency",
                "gateway.step.latency_ms",
                LATENCY_QUANTILE,
                self.latency_limit_ms,
            ),
        ]
    }
}

/// Configuration of the full Anole pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub struct AnoleConfig {
    /// Scene-encoder parameters.
    pub scene: SceneModelConfig,
    /// Compressed-detector parameters.
    pub detector: DetectorConfig,
    /// Algorithm 1 parameters.
    pub repository: RepositoryConfig,
    /// Adaptive-sampling parameters.
    pub sampling: SamplingConfig,
    /// Decision-model parameters.
    pub decision: DecisionConfig,
    /// Model-cache parameters.
    pub cache: CacheConfig,
    /// Int8 serving parameters. Deserializes to the default from configs
    /// saved before quantization existed.
    pub quant: QuantConfig,
    /// Serving-SLO parameters. Deserializes to the disabled default from
    /// configs saved before SLOs existed, or saved while at the default.
    pub slo: SloConfig,
}

// A config saved before a section existed lacks it; an unknown section or
// member (the retired `prefetch`, `drift` and `rollout` blocks, say) is
// ignored.
anole_json::json_struct!(AnoleConfig {
    scene,
    detector,
    repository,
    sampling,
    decision,
    cache,
    quant = QuantConfig::default(),
    slo = SloConfig::default(),
});

impl AnoleConfig {
    /// A cheap configuration for unit tests: fewer models, fewer epochs.
    pub fn fast() -> Self {
        let mut cfg = Self::default();
        cfg.scene.train.epochs = 10;
        cfg.detector.train.epochs = 8;
        cfg.decision.train.epochs = 10;
        cfg.repository.target_models = 6;
        cfg.repository.delta = 0.15;
        cfg.sampling.kappa = 800;
        cfg.sampling.max_draws_per_arm = 100;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anole_json::{FromJson, Value};

    /// The bytes written for the default config.
    const DEFAULT_CONFIG_JSON: &str = concat!(
        r#"{"scene":{"hidden":64,"embedding":32,"train":{"epochs":40,"batch_size":64,"#,
        r#""optimizer":{"Adam":{"lr":0.005}}}},"detector":{"compressed_hidden":48,"#,
        r#""deep_hidden":96,"deep_layers":2,"pos_weight":2.0,"threshold":0.5,"#,
        r#""train":{"epochs":30,"batch_size":64,"optimizer":{"Adam":{"lr":0.005}}}},"#,
        r#""repository":{"target_models":19,"delta":0.3},"sampling":{"theta":0.9,"#,
        r#""kappa":12000,"accept_f1":0.5,"max_draws_per_arm":600},"decision":{"#,
        r#""head_hidden":64,"confidence_threshold":0.45,"hedge_top_k":2,"train":{"#,
        r#""epochs":40,"batch_size":64,"optimizer":{"Adam":{"lr":0.005}}}},"cache":{"#,
        r#""capacity":5,"policy":"Lfu","byte_budget":null},"quant":{"epsilon_f1":0.02},"#,
        r#""slo":{"enabled":false,"latency_limit_ms":150.0,"canary_frames":32}}"#,
    );

    /// The bytes written for the default config while it still carried the
    /// retired values: the `drift` and `rollout` sections, the trainers'
    /// `pos_weight`, `weight_decay` and `target_loss`, `max_k`,
    /// `augment_noise_std`, `suitability_smoothing`, `quant.enabled` and
    /// five SLO thresholds.
    const RETIRED_DEFAULT_CONFIG_JSON: &str = concat!(
        r#"{"scene":{"hidden":64,"embedding":32,"train":{"epochs":40,"batch_size":64,"#,
        r#""optimizer":{"Adam":{"lr":0.005}},"pos_weight":1.0,"weight_decay":0.0,"#,
        r#""target_loss":0.0}},"detector":{"compressed_hidden":48,"deep_hidden":96,"#,
        r#""deep_layers":2,"pos_weight":2.0,"threshold":0.5,"train":{"epochs":30,"#,
        r#""batch_size":64,"optimizer":{"Adam":{"lr":0.005}},"pos_weight":2.0,"#,
        r#""weight_decay":0.0,"target_loss":0.0}},"repository":{"target_models":19,"delta":0.3,"#,
        r#""max_k":0},"sampling":{"theta":0.9,"kappa":12000,"accept_f1":0.5,"#,
        r#""max_draws_per_arm":600},"decision":{"head_hidden":64,"augment_noise_std":0.0,"#,
        r#""confidence_threshold":0.45,"hedge_top_k":2,"suitability_smoothing":0.0,"#,
        r#""train":{"epochs":40,"batch_size":64,"optimizer":{"Adam":{"lr":0.005}},"#,
        r#""pos_weight":1.0,"weight_decay":0.0,"target_loss":0.0}},"cache":{"capacity":5,"#,
        r#""policy":"Lfu","byte_budget":null},"quant":{"enabled":false,"epsilon_f1":0.02},"#,
        r#""drift":{"window":16,"quantile":0.1,"enter_windows":3,"exit_windows":8,"#,
        r#""cooldown":64},"rollout":{"canary_fraction":0.25,"epsilon_f1":0.02,"#,
        r#""max_download_sessions":8},"slo":{"enabled":false,"shed_budget":0.05,"#,
        r#""latency_q":0.99,"latency_limit_ms":150.0,"fast_burn":14.4,"slow_burn":6.0,"#,
        r#""slow_windows":12,"canary_frames":32}}"#,
    );

    #[test]
    fn defaults_match_paper_scale() {
        let cfg = AnoleConfig::default();
        assert_eq!(cfg.repository.target_models, 19);
        assert_eq!(cfg.cache.capacity, 5);
        assert_eq!(cfg.cache.policy, EvictionPolicy::Lfu);
        assert_eq!(cfg.cache.byte_budget, None);
        assert!((cfg.sampling.theta - 0.9).abs() < 1e-12);
        assert!(cfg.quant.epsilon_f1 > 0.0);
    }

    /// The default config as a value tree, without the members at `paths`
    /// (`"cache.byte_budget"` reaches into a section).
    fn default_config_without(paths: &[&str]) -> Value {
        fn remove(value: &mut Value, path: &str) {
            let Value::Object(members) = value else {
                panic!("{path}: not an object");
            };
            match path.split_once('.') {
                Some((head, rest)) => {
                    let member = members.iter_mut().find(|(k, _)| k == head);
                    remove(&mut member.expect("section present").1, rest);
                }
                None => members.retain(|(k, _)| k != path),
            }
        }
        let mut value = anole_json::parse(&anole_json::to_string(&AnoleConfig::default())).unwrap();
        for path in paths {
            remove(&mut value, path);
        }
        value
    }

    #[test]
    fn default_config_json_is_pinned() {
        assert_eq!(anole_json::to_string(&AnoleConfig::default()), DEFAULT_CONFIG_JSON);
        for json in [DEFAULT_CONFIG_JSON, RETIRED_DEFAULT_CONFIG_JSON] {
            let back: AnoleConfig = anole_json::from_str(json).unwrap();
            assert_eq!(back, AnoleConfig::default());
        }
    }

    #[test]
    fn configs_without_later_sections_still_deserialize() {
        // A config saved before the quantization and SLO sections and cache
        // byte accounting existed lacks all three; each must default, not
        // error.
        let value = default_config_without(&["quant", "cache.byte_budget", "slo"]);
        assert!(value.get("quant").is_none());
        let cfg = AnoleConfig::from_json(&value).unwrap();
        assert_eq!(cfg, AnoleConfig::default());
        // A required section is still required.
        let value = default_config_without(&["scene"]);
        assert!(AnoleConfig::from_json(&value).is_err());
    }

    #[test]
    fn non_default_slo_round_trips_and_sets_spec_budgets() {
        let mut cfg = AnoleConfig::default();
        cfg.slo.enabled = true;
        cfg.slo.latency_limit_ms = 90.0;
        let json = anole_json::to_string(&cfg);
        let back: AnoleConfig = anole_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        let specs = cfg.slo.specs();
        assert_eq!(specs.len(), 2);
        assert!((specs[0].budget() - SHED_BUDGET).abs() < 1e-12);
        assert!((specs[1].budget() - (1.0 - LATENCY_QUANTILE)).abs() < 1e-12);
    }

    #[test]
    fn configs_with_a_prefetch_block_still_deserialize() {
        // Configs saved while the engine had a predictive prefetcher carry a
        // `prefetch` section when it was changed from its default. The
        // section is ignored, not rejected.
        let mut value = default_config_without(&["slo"]);
        let prefetch = anole_json::parse(
            r#"{"enabled":true,"shards":4,"budget_ms":33.0,"min_probability":0.05,"admission_filter":false}"#,
        )
        .unwrap();
        let Value::Object(members) = &mut value else {
            unreachable!("a config is an object");
        };
        members.push(("prefetch".to_string(), prefetch));
        let cfg = AnoleConfig::from_json(&value).unwrap();
        assert_eq!(cfg, AnoleConfig::default());
    }

    #[test]
    fn fast_config_is_cheaper() {
        let fast = AnoleConfig::fast();
        let full = AnoleConfig::default();
        assert!(fast.scene.train.epochs < full.scene.train.epochs);
        assert!(fast.repository.target_models < full.repository.target_models);
    }
}
