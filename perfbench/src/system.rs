//! Stage 1: from generated inputs to a ready system — ALT, the Keyword
//! Separated Index with the default `KspinConfig`, and the workload's
//! distance oracle — and the §6.2 writes applied to it.

use std::sync::Arc;
use std::time::Instant;

use kspin::adapters::{ChDistance, HlDistance};
use kspin::alt::{AltIndex, LandmarkStrategy};
use kspin::ch::{ChConfig, ContractionHierarchy};
use kspin::core::{KspinConfig, KspinIndex, NetworkDistance};
use kspin::hl::HubLabels;
use kspin::KspinSystem;

use crate::workload::{Inputs, Oracle, Write};

/// A built system plus the distance structures it queries through.
pub struct Built {
    pub sys: KspinSystem,
    pub oracles: Oracles,
}

/// The distance structures, shared (`Arc`) with systems reloaded from a
/// snapshot, which stores the CH but not the hub labels.
#[derive(Clone)]
pub struct Oracles {
    /// Always built: CH is the CH workload's oracle and the HL workloads'
    /// label substrate, and it rides along in the snapshot.
    pub ch: Arc<ContractionHierarchy>,
    pub hl: Option<Arc<HubLabels>>,
}

/// Seconds spent in each build step of one setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub alt_s: f64,
    pub kspin_s: f64,
    pub ch_s: f64,
    pub hl_s: f64,
}

impl BuildTimes {
    pub fn total(&self) -> f64 {
        self.alt_s + self.kspin_s + self.ch_s + self.hl_s
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Builds the system over copies of `inputs` (copying is not timed).
/// The same steps as `KspinSystem::build`, timed one by one.
pub fn setup(inputs: &Inputs, oracle: Oracle) -> (Built, BuildTimes) {
    let graph = inputs.graph.clone();
    let corpus = inputs.corpus.clone();
    let vocab = inputs.vocab.clone();
    let (alt, alt_s) = timed(|| {
        AltIndex::build(
            &graph,
            KspinSystem::NUM_LANDMARKS,
            LandmarkStrategy::Farthest,
            0,
        )
    });
    let (index, kspin_s) = timed(|| KspinIndex::build(&graph, &corpus, &KspinConfig::default()));
    let (ch, ch_s) = timed(|| ContractionHierarchy::build(&graph, &ChConfig::default()));
    let (hl, hl_s) = match oracle {
        Oracle::Hl => {
            let (hl, s) = timed(|| HubLabels::build(&ch));
            (Some(Arc::new(hl)), s)
        }
        Oracle::Ch => (None, 0.0),
    };
    let built = Built {
        sys: KspinSystem {
            graph,
            corpus,
            vocab,
            alt,
            index,
        },
        oracles: Oracles {
            ch: Arc::new(ch),
            hl,
        },
    };
    let times = BuildTimes {
        alt_s,
        kspin_s,
        ch_s,
        hl_s,
    };
    (built, times)
}

/// A Network Distance Module the benchmark can instantiate per engine
/// and per `BatchExecutor` worker.
pub trait OracleKind {
    type D<'a>: NetworkDistance;
    fn make(o: &Oracles) -> Self::D<'_>;
}

/// KS-HL through `kspin::adapters::HlDistance`.
pub struct HlKind;

impl OracleKind for HlKind {
    type D<'a> = HlDistance<'a>;
    fn make(o: &Oracles) -> HlDistance<'_> {
        HlDistance::new(o.hl.as_deref().expect("HL workloads build labels"))
    }
}

/// KS-CH through `kspin::adapters::ChDistance`.
pub struct ChKind;

impl OracleKind for ChKind {
    type D<'a> = ChDistance<'a>;
    fn make(o: &Oracles) -> ChDistance<'_> {
        ChDistance::new(&o.ch)
    }
}

/// Applies one §6.2 write. Lazy inserts compute Theorem-2 affected sets
/// through `dist`, the workload's own oracle, kept alive by the caller so
/// its search arrays are not reallocated per write.
pub fn apply(sys: &mut KspinSystem, dist: &mut dyn NetworkDistance, w: Write) {
    match w {
        Write::Delete(o) => sys.index.delete_object(&sys.corpus, o),
        Write::Insert(o) => sys.index.insert_object(&sys.graph, &sys.corpus, o, dist),
        Write::Rebuild(t) => sys.index.rebuild_term(&sys.graph, &sys.corpus, t),
    }
}
