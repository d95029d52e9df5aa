//! # marketscope-metrics
//!
//! Statistics and text rendering used to regenerate the paper's tables and
//! figures: empirical CDFs (Figures 6, 7, 8), labelled histograms
//! (Figures 1, 2, 3, 4, 11, 12), power-law concentration measures
//! (Section 4.2's "top 0.1% of apps account for more than 50% of
//! downloads"), ASCII tables (Tables 1–6), the 17×17 clone-flow heatmap
//! (Figure 10) and the normalized radar comparison (Figure 13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod cdf;
pub mod corr;
pub mod heatmap;
pub mod hist;
pub mod powerlaw;
pub mod radar;
pub mod table;

pub use boxplot::BoxPlot;
pub use cdf::Cdf;
pub use corr::spearman;
pub use heatmap::Heatmap;
pub use hist::LabelledHistogram;
pub use powerlaw::top_share;
pub use radar::Radar;
pub use table::Table;
