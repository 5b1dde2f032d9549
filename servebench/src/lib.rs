//! Serving benchmark for `diffcond serve`: seeded workloads ([`gen`]), a
//! reply oracle over the paper crates ([`oracle`]), the two-connection load
//! generator ([`served`]) and the traced in-process replay ([`traced`]).
//! See `README.md` beside this crate for what each workload is for.

pub mod gen;
pub mod oracle;
pub mod served;
pub mod traced;
