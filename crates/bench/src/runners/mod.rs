//! One module per experiment, each split into a parallel job plan and a
//! sequential finish (see [`crate::suite`]).

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod push;
pub mod scenario;
pub mod table3;
pub mod table4;
pub mod table5;
