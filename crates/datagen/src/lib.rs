//! # dquag-datagen
//!
//! Synthetic dataset generators and error injection for the DQuaG evaluation
//! (EDBT 2025).
//!
//! The paper evaluates on six public datasets (Airbnb NYC, Chicago Divvy
//! bicycle sharing, Google Play Store apps, New York Taxi trips, Hotel
//! Bookings, Credit Card applications). Those files cannot be downloaded in
//! this environment, so each dataset is modelled by a generator that
//! reproduces its schema (the column names the paper references, e.g.
//! `DAYS_BIRTH`, `DAYS_EMPLOYED`, `customer_type`, `adults`, `babies`) and a
//! correlated generative process, so that the cross-feature dependencies the
//! GNN must learn — and the hidden conflicts the evaluation injects — exist in
//! the data.
//!
//! Two families of datasets mirror the paper's §4.1.1:
//!
//! * **Datasets with ground-truth errors** (Airbnb, Bicycle, Play Store):
//!   [`DatasetKind::generate_dirty`] produces an "uncleaned" variant carrying
//!   realistic in-situ errors (price outliers, impossible birth years,
//!   category typos, missing cells, broken duration/distance consistency).
//! * **Datasets without ground-truth errors** (NY Taxi, Hotel Booking, Credit
//!   Card): generated clean; the §4.1.2 injectors in [`errors`] corrupt them
//!   with ordinary errors (missing values, numeric anomalies, qwerty typos at
//!   20% of three selected attributes) and the paper's hidden logical
//!   conflicts.
//!
//! [`batches`] reproduces the batch protocol of §4.2: sample 10% of a dataset
//! to build 50 clean and 50 dirty test batches.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batches;
pub mod datasets;
pub mod errors;

pub use batches::{make_test_batches, sample_fraction, Batch, BatchProtocol};
pub use datasets::DatasetKind;
pub use errors::{inject_hidden, inject_ordinary, HiddenError, InjectionReport, OrdinaryError};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Create the deterministic RNG used throughout the generators.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
