//! Knowledge-based relationship inference — the ChatGPT-4 substitution.
//!
//! The paper constructs its feature graph by sending the feature names `F`,
//! the feature descriptions `D` and 100 sampled data points `S` to ChatGPT-4
//! and parsing the returned JSON (§3.1.1): *given a schema and a sample,
//! return a [`RelationshipSet`]*.
//!
//! [`StatisticalOracle`] answers that question in this reproduction. It
//! computes pairwise association strengths on the sampled rows (Pearson /
//! Cramér's V / correlation ratio from [`crate::measures`]) and a
//! lightweight name-token heuristic that mimics the semantic hints the LLM
//! derives from names and descriptions (e.g. `Country` ↔ `City`,
//! `DAYS_BIRTH` ↔ `DAYS_EMPLOYED`). Pairs whose combined evidence clears a
//! fixed per-type threshold become edges.
//!
//! A hand-written or LLM-made answer (for the prompt [`build_prompt`]
//! regenerates verbatim) does not need an oracle: parse it with
//! [`RelationshipSet::from_json`], build the graph with
//! [`FeatureGraph::from_relationships`], and hand that to training (in
//! `dquag-core`, `DquagConfig::feature_graph_override`).

use crate::feature_graph::{FeatureGraph, RelationshipSet};
use crate::measures::{correlation_ratio, cramers_v, pearson_abs};
use dquag_tabular::{DataFrame, DataType, Schema};

/// Number of sample rows the paper sends to the LLM.
pub const PAPER_SAMPLE_SIZE: usize = 100;

/// Minimum absolute Pearson correlation for a numeric-numeric edge.
const NUMERIC_THRESHOLD: f64 = 0.30;
/// Minimum Cramér's V for a categorical-categorical edge.
const CATEGORICAL_THRESHOLD: f64 = 0.30;
/// Minimum correlation ratio for a mixed-type edge.
const MIXED_THRESHOLD: f64 = 0.35;

/// Statistical stand-in for the paper's ChatGPT-4 oracle.
///
/// Every column ends up with at least one edge: a column whose
/// associations all fall below threshold is linked to its strongest
/// partner, so the GNN can still propagate information through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatisticalOracle;

impl StatisticalOracle {
    /// Association strength between two columns of the sample, by type pair.
    fn association(&self, sample: &DataFrame, i: usize, j: usize) -> f64 {
        let fi = &sample.schema().fields()[i];
        let fj = &sample.schema().fields()[j];
        let ci = sample.column(i).expect("column in range");
        let cj = sample.column(j).expect("column in range");
        match (fi.dtype, fj.dtype) {
            (DataType::Numeric, DataType::Numeric) => pearson_abs(
                ci.numeric_values().expect("numeric column"),
                cj.numeric_values().expect("numeric column"),
            ),
            (DataType::Categorical, DataType::Categorical) => cramers_v(
                ci.categorical_values().expect("categorical column"),
                cj.categorical_values().expect("categorical column"),
            ),
            (DataType::Categorical, DataType::Numeric) => correlation_ratio(
                ci.categorical_values().expect("categorical column"),
                cj.numeric_values().expect("numeric column"),
            ),
            (DataType::Numeric, DataType::Categorical) => correlation_ratio(
                cj.categorical_values().expect("categorical column"),
                ci.numeric_values().expect("numeric column"),
            ),
        }
    }

    fn threshold_for(&self, schema: &Schema, i: usize, j: usize) -> f64 {
        let ti = schema.fields()[i].dtype;
        let tj = schema.fields()[j].dtype;
        match (ti, tj) {
            (DataType::Numeric, DataType::Numeric) => NUMERIC_THRESHOLD,
            (DataType::Categorical, DataType::Categorical) => CATEGORICAL_THRESHOLD,
            _ => MIXED_THRESHOLD,
        }
    }

    /// Infer the set of related feature pairs from the schema (names and
    /// descriptions) and a small sample — the inputs the paper's prompt
    /// carries.
    pub fn infer(&self, schema: &Schema, sample: &DataFrame) -> RelationshipSet {
        assert_eq!(
            schema,
            sample.schema(),
            "oracle sample must share the dataset schema"
        );
        let n = schema.len();
        let mut set = RelationshipSet::default();
        let mut strengths = vec![0.0f64; n * n];
        let mut linked = vec![false; n];

        for i in 0..n {
            for j in (i + 1)..n {
                let mut strength = self.association(sample, i, j);
                if names_look_related(&schema.fields()[i], &schema.fields()[j]) {
                    // Names sharing informative tokens get the same boost a
                    // language model derives from the descriptions.
                    strength = (strength + 0.25).min(1.0);
                }
                strengths[i * n + j] = strength;
                strengths[j * n + i] = strength;
                if strength >= self.threshold_for(schema, i, j) {
                    set.push(&schema.fields()[i].name, &schema.fields()[j].name);
                    linked[i] = true;
                    linked[j] = true;
                }
            }
        }

        if n > 1 {
            for i in 0..n {
                if linked[i] {
                    continue;
                }
                // Attach the isolated column to its strongest partner so the
                // GNN can still propagate information through it.
                let best = (0..n)
                    .filter(|&j| j != i)
                    .max_by(|&a, &b| {
                        strengths[i * n + a]
                            .partial_cmp(&strengths[i * n + b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("n > 1 guarantees a partner");
                set.push(&schema.fields()[i].name, &schema.fields()[best].name);
                linked[i] = true;
            }
        }
        set
    }
}

/// Reconstruct the paper's prompt (§3.1.1) so a user with LLM access can
/// reproduce the original feature-graph construction and feed the answer back
/// through [`RelationshipSet::from_json`] and
/// [`FeatureGraph::from_relationships`].
pub fn build_prompt(schema: &Schema, sample: &DataFrame) -> String {
    let mut prompt = String::new();
    prompt.push_str(
        "Given the following information, please infer the relationships between features. \
         Provide your output in JSON format, capturing the type of relationships.\n\n",
    );
    prompt.push_str("Feature Names: ");
    prompt.push_str(&schema.names().join(", "));
    prompt.push_str("\nFeature Descriptions:\n");
    for field in schema.fields() {
        prompt.push_str(&format!("  - {}: {}\n", field.name, field.description));
    }
    prompt.push_str(&format!(
        "Sample Data Points: {} data samples from the dataset\n",
        sample.n_rows()
    ));
    for row in sample.iter_rows().take(PAPER_SAMPLE_SIZE) {
        let rendered: Vec<String> = row.iter().map(|v| v.to_csv_field()).collect();
        prompt.push_str("  ");
        prompt.push_str(&rendered.join(", "));
        prompt.push('\n');
    }
    prompt.push_str(
        "\nOutput: Please return a JSON object in the format:\n\
         {\"relationships\": [{\"feature1\", \"feature2\"}, {\"feature3\", \"feature4\"}, ...]}\n",
    );
    prompt
}

/// Deterministically sample up to `sample_size` rows (evenly strided) — the
/// stand-in for the paper's random 100-row sample, chosen deterministic so
/// experiments are reproducible.
pub fn sample_rows(df: &DataFrame, sample_size: usize) -> DataFrame {
    if df.n_rows() <= sample_size || sample_size == 0 {
        return df.clone();
    }
    let stride = df.n_rows() as f64 / sample_size as f64;
    let indices: Vec<usize> = (0..sample_size)
        .map(|i| ((i as f64 * stride) as usize).min(df.n_rows() - 1))
        .collect();
    df.select_rows(&indices).expect("indices in range")
}

/// End-to-end helper: sample the clean dataframe, run the oracle, and build
/// the [`FeatureGraph`] over the schema's columns.
pub fn build_feature_graph(
    df: &DataFrame,
    oracle: &StatisticalOracle,
    sample_size: usize,
) -> crate::Result<FeatureGraph> {
    let sample = sample_rows(df, sample_size);
    let relationships = oracle.infer(df.schema(), &sample);
    let names: Vec<String> = df
        .schema()
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();
    FeatureGraph::from_relationships(names, &relationships)
}

/// Heuristic mirror of the semantic cues an LLM reads from names and
/// descriptions: shared informative tokens (split on `_`, spaces and case
/// boundaries) or well-known geographic/temporal pairings.
fn names_look_related(a: &dquag_tabular::Field, b: &dquag_tabular::Field) -> bool {
    let ta = tokens(&format!("{} {}", a.name, a.description));
    let tb = tokens(&format!("{} {}", b.name, b.description));
    let shared = ta.iter().filter(|t| tb.contains(*t)).count();
    if shared > 0 {
        return true;
    }
    const KNOWN_PAIRS: &[(&str, &str)] = &[
        ("country", "city"),
        ("city", "neighbourhood"),
        ("city", "neighborhood"),
        ("start", "end"),
        ("pickup", "dropoff"),
        ("income", "occupation"),
        ("income", "education"),
        ("education", "occupation"),
        ("age", "occupation"),
        ("age", "income"),
        ("birth", "employed"),
        ("adults", "babies"),
        ("adults", "children"),
        ("price", "room"),
        ("rating", "reviews"),
        ("duration", "distance"),
    ];
    let has = |set: &[String], token: &str| set.iter().any(|t| t == token);
    KNOWN_PAIRS
        .iter()
        .any(|(x, y)| (has(&ta, x) && has(&tb, y)) || (has(&ta, y) && has(&tb, x)))
}

/// Lower-cased informative tokens of a name/description string.
fn tokens(text: &str) -> Vec<String> {
    const STOPWORDS: &[&str] = &[
        "the", "of", "a", "an", "in", "for", "and", "or", "type", "name", "total", "amt", "id",
        "days", "number", "value",
    ];
    let mut out = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            // split camelCase boundaries
            if ch.is_uppercase() && prev_lower && !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
            prev_lower = ch.is_lowercase();
            current.push(ch.to_ascii_lowercase());
        } else {
            prev_lower = false;
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out.retain(|t| t.len() > 2 && !STOPWORDS.contains(&t.as_str()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dquag_tabular::{Field, Value};

    /// A clean dataset with a built-in dependency structure:
    /// income ≈ f(education), city determined by country, age independent.
    fn correlated_frame(rows: usize) -> DataFrame {
        let schema = Schema::new(vec![
            Field::numeric("age", "age of the person in years"),
            Field::numeric("income", "annual income in dollars"),
            Field::categorical("education", "highest education level"),
            Field::categorical("country", "country of residence"),
            Field::categorical("city", "city of residence"),
        ]);
        let mut df = DataFrame::new(schema);
        for i in 0..rows {
            let education = match i % 3 {
                0 => "primary",
                1 => "bachelor",
                _ => "master",
            };
            let income = match i % 3 {
                0 => 20_000.0 + (i % 7) as f64 * 500.0,
                1 => 60_000.0 + (i % 7) as f64 * 500.0,
                _ => 100_000.0 + (i % 7) as f64 * 500.0,
            };
            let (country, city) = if i % 2 == 0 {
                ("USA", "New York")
            } else {
                ("France", "Paris")
            };
            let age = 20.0 + ((i * 37) % 45) as f64;
            df.push_row(vec![
                Value::Number(age),
                Value::Number(income),
                Value::Text(education.into()),
                Value::Text(country.into()),
                Value::Text(city.into()),
            ])
            .unwrap();
        }
        df
    }

    #[test]
    fn statistical_oracle_finds_real_dependencies() {
        let df = correlated_frame(200);
        let graph = build_feature_graph(&df, &StatisticalOracle, 100).unwrap();
        let edu = graph.index_of("education").unwrap();
        let income = graph.index_of("income").unwrap();
        let country = graph.index_of("country").unwrap();
        let city = graph.index_of("city").unwrap();
        assert!(graph.has_edge(edu, income), "income depends on education");
        assert!(
            graph.has_edge(country, city),
            "city is determined by country"
        );
    }

    #[test]
    fn isolated_columns_still_get_connected() {
        let df = correlated_frame(120);
        let graph = build_feature_graph(&df, &StatisticalOracle, 100).unwrap();
        // age is independent of everything, but the config links isolated nodes
        let age = graph.index_of("age").unwrap();
        assert!(graph.degree(age) >= 1, "isolated node must be attached");
    }

    #[test]
    fn prompt_contains_names_descriptions_and_samples() {
        let df = correlated_frame(10);
        let sample = sample_rows(&df, 5);
        let prompt = build_prompt(df.schema(), &sample);
        assert!(prompt.contains("Feature Names: age, income, education, country, city"));
        assert!(prompt.contains("annual income in dollars"));
        assert!(prompt.contains("relationships"));
        assert!(prompt.contains("New York") || prompt.contains("Paris"));
    }

    #[test]
    fn sample_rows_is_deterministic_and_bounded() {
        let df = correlated_frame(500);
        let s1 = sample_rows(&df, 100);
        let s2 = sample_rows(&df, 100);
        assert_eq!(s1, s2);
        assert_eq!(s1.n_rows(), 100);
        let small = correlated_frame(7);
        assert_eq!(sample_rows(&small, 100).n_rows(), 7);
    }

    #[test]
    fn name_heuristics_pick_up_geography_and_shared_tokens() {
        let country = Field::categorical("Country", "country of the listing");
        let city = Field::categorical("City", "city of the listing");
        assert!(names_look_related(&country, &city));
        let start = Field::numeric("trip_start_hour", "hour the trip started");
        let end = Field::numeric("trip_end_hour", "hour the trip ended");
        assert!(names_look_related(&start, &end));
        let unrelated_a = Field::numeric("price", "listing price");
        let unrelated_b = Field::categorical("colour", "favourite colour");
        assert!(!names_look_related(&unrelated_a, &unrelated_b));
    }

    #[test]
    fn tokens_split_snake_and_camel_case() {
        let t = tokens("DAYS_EMPLOYED customerType");
        assert!(t.contains(&"employed".to_string()));
        assert!(t.contains(&"customer".to_string()));
        assert!(!t.contains(&"days".to_string()), "stopword removed");
    }
}
