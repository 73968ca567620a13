//! The `ccache` subcommands.
//!
//! Each submodule exposes `run(args)` taking the arguments that follow the subcommand
//! name, plus a `USAGE` string printed by `--help`. The figure commands reproduce the
//! paper's evaluation figures as presets over the experiment layer (`ccache-exp`);
//! [`run`] executes arbitrary declarative spec files through the same pipeline;
//! [`sweep`] replays an arbitrary trace file across backends; [`trace`] records,
//! inspects and converts trace files; [`tune`] searches cache geometries and column
//! assignments with simulation-driven fitness; [`serve`] runs the concurrent
//! cache-advisory service (or drives one as a scriptable client).

pub mod ablation;
pub mod fig4;
pub mod fig5;
pub mod run;
pub mod serve;
pub mod sweep;
pub mod trace;
pub mod tune;
