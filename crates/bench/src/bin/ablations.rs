//! Run the design ablations of `experiments::ablations` (feature graph,
//! weighted loss, threshold).
use dquag_bench::{experiments::ablations, Scale};

fn main() {
    let scale = Scale::from_args(std::env::args().skip(1));
    eprintln!("[ablations] running at {} scale", scale.label());
    let rows = ablations::run(scale);
    println!("{}", ablations::render(&rows));
}
