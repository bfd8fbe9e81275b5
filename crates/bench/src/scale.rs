//! Experiment scales: smoke (tests), quick (default) and full (paper-like).

use dquag_core::DquagConfig;
use dquag_gnn::ModelConfig;

/// How much work each experiment does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny configuration used by the harness's own tests.
    Smoke,
    /// Default: the same protocol at laptop-friendly sizes (minutes).
    Quick,
    /// Paper-like sizes (tens of minutes on CPU).
    Full,
}

impl Scale {
    /// Resolve the scale from CLI arguments and the `DQUAG_SCALE` environment
    /// variable (`--full` / `--smoke` take precedence).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        if args.iter().any(|a| a == "--full") {
            return Scale::Full;
        }
        if args.iter().any(|a| a == "--smoke") {
            return Scale::Smoke;
        }
        match std::env::var("DQUAG_SCALE").ok().as_deref() {
            Some("full") => Scale::Full,
            Some("smoke") => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// Rows in each generated source dataset.
    pub fn dataset_rows(&self) -> usize {
        match self {
            Scale::Smoke => 600,
            Scale::Quick => 3_000,
            Scale::Full => 20_000,
        }
    }

    /// Number of clean (and dirty) test batches.
    pub fn n_batches_per_class(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Quick => 10,
            Scale::Full => 50,
        }
    }

    /// The DQuaG pipeline configuration for this scale.
    pub fn dquag_config(&self) -> DquagConfig {
        let config = match self {
            Scale::Smoke => DquagConfig {
                model: ModelConfig {
                    hidden_dim: 12,
                    n_layers: 2,
                    ..ModelConfig::default()
                },
                epochs: 8,
                batch_size: 64,
                ..DquagConfig::default()
            },
            Scale::Quick => DquagConfig {
                model: ModelConfig {
                    hidden_dim: 24,
                    n_layers: 4,
                    ..ModelConfig::default()
                },
                epochs: 15,
                batch_size: 128,
                ..DquagConfig::default()
            },
            Scale::Full => DquagConfig {
                epochs: 30,
                batch_size: 128,
                ..DquagConfig::default()
            },
        };
        config
            .validated()
            .expect("scale configurations are in range")
    }

    /// Sample sizes for the Table 3 sweep.
    pub fn table3_sample_sizes(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![10, 50, 200],
            _ => vec![10, 20, 50, 100, 500, 1000],
        }
    }

    /// Row counts for the Figure 4 scalability sweep.
    pub fn figure4_row_counts(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![500, 1_000],
            Scale::Quick => vec![1_000, 5_000, 10_000, 20_000],
            Scale::Full => vec![10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000],
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_override_environment() {
        assert_eq!(Scale::from_args(["--full".to_string()]), Scale::Full);
        assert_eq!(Scale::from_args(["--smoke".to_string()]), Scale::Smoke);
    }

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(Scale::Smoke.dataset_rows() < Scale::Quick.dataset_rows());
        assert!(Scale::Quick.dataset_rows() < Scale::Full.dataset_rows());
        assert!(
            Scale::Full.n_batches_per_class() == 50,
            "paper uses 50+50 batches"
        );
    }

    #[test]
    fn full_config_matches_paper_hyperparameters() {
        let config = Scale::Full.dquag_config();
        assert_eq!(config.model.hidden_dim, 64);
        assert_eq!(config.model.n_layers, 4);
        assert_eq!(config.batch_size, 128);
    }
}
