//! Inspect the knowledge-based feature graph DQuaG builds for a dataset, and
//! regenerate the paper's ChatGPT-4 prompt for users who want to plug a real
//! LLM response back in. The printed relationship JSON is read back the way
//! such a response goes in (`RelationshipSet::from_json`, then
//! `FeatureGraph::from_relationships`, then
//! `DquagConfig::feature_graph_override`) and must rebuild the same graph.
//!
//! ```bash
//! cargo run --release --example feature_graph_inspection
//! ```

use dquag::datagen::DatasetKind;
use dquag::graph::knowledge::{build_feature_graph, build_prompt, sample_rows, StatisticalOracle};
use dquag::graph::{FeatureGraph, RelationshipSet};

fn main() {
    for kind in [DatasetKind::CreditCard, DatasetKind::HotelBooking] {
        let clean = kind.generate_clean(2_000, 55);
        let graph: FeatureGraph =
            build_feature_graph(&clean, &StatisticalOracle, 100).expect("graph construction");

        println!("=== {} ===", kind.name());
        println!(
            "{} features, {} inferred relationships, connected: {}",
            graph.n_nodes(),
            graph.n_edges(),
            graph.is_connected()
        );
        for (i, j) in graph.edges() {
            println!("  {} ↔ {}", graph.node_names()[i], graph.node_names()[j]);
        }

        // The relationships in the paper's JSON exchange format.
        let json = graph.to_relationships().to_json();
        println!("\nrelationship JSON:\n{json}");

        // An LLM's answer in that format goes in through the same door.
        let relationships = RelationshipSet::from_json(&json).expect("paper-format JSON");
        let replayed = FeatureGraph::from_relationships(clean.schema().names(), &relationships)
            .expect("every feature is a column");
        assert_eq!(replayed, graph, "the relationship JSON rebuilds the graph");

        // The exact prompt of §3.1.1, ready to paste into an LLM. (Truncated
        // here; the sample rows make it long.)
        let prompt = build_prompt(clean.schema(), &sample_rows(&clean, 5));
        let preview: String = prompt.lines().take(12).collect::<Vec<_>>().join("\n");
        println!("prompt preview:\n{preview}\n…\n");
    }
}
