//! The five campaign workloads.

mod live;
mod sim;
mod urr;

pub use live::Live;
pub use sim::Sim;
pub use urr::UrrVendor;
