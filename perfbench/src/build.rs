//! The build chain taken apart through the public `IndexComponent`
//! contract: each component's `extract` (as `build_segment` or per
//! table) and `merge` is timed on its own, so build time splits into
//! context + extract + merge per component.

use std::collections::BTreeSet;

use td_core::join::{
    ContainmentJoinSearch, CorrelatedSearch, ExactJoinSearch, FuzzyJoinSearch, MateSearch,
};
use td_core::segment::ArtifactOf;
use td_core::union::{SantosSearch, StarmieSearch, TusSearch};
use td_core::{
    ComponentSegment, DiscoveryPipeline, IndexComponent, KeywordSearch, PipelineContext,
    PipelineSegment, SegmentView, TableArtifacts,
};
use td_table::{LakeProfile, Table, TableId};

use crate::stats::Spans;

/// The ten index components, in `TableArtifacts` field order.
pub const COMPONENTS: [&str; 10] = [
    "profile",
    "keyword",
    "exact_join",
    "containment_join",
    "fuzzy_join",
    "mate",
    "correlated",
    "tus",
    "santos",
    "starmie",
];

/// Accumulated per-component extract and merge time, in ms, indexed
/// like [`COMPONENTS`]. Every timed call is also recorded as a span
/// (`build.extract.<component>`, `build.merge.<component>`) under the
/// given parent.
#[derive(Debug, Clone, Default)]
pub struct BuildTimes {
    /// `PipelineContext::new` (embedders and knowledge base).
    pub context_ms: f64,
    /// Extraction time per component.
    pub extract_ms: [f64; 10],
    /// Merge time per component.
    pub merge_ms: [f64; 10],
}

impl BuildTimes {
    /// Sum of every part.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.context_ms + self.extract_ms.iter().sum::<f64>() + self.merge_ms.iter().sum::<f64>()
    }
}

/// Where a decomposed build records its spans and times.
pub struct Recorder<'a> {
    /// The span recorder.
    pub spans: &'a Spans,
    /// The span every call is recorded under.
    pub parent: Option<u64>,
    /// The accumulated times.
    pub times: BuildTimes,
}

impl Recorder<'_> {
    fn extract<T>(&mut self, slot: usize, f: impl FnOnce() -> T) -> T {
        let name = format!("build.extract.{}", COMPONENTS[slot]);
        let (out, t) = self.spans.time(self.parent, &name, f);
        self.times.extract_ms[slot] += t;
        out
    }

    fn merge<T>(&mut self, slot: usize, f: impl FnOnce() -> T) -> T {
        let name = format!("build.merge.{}", COMPONENTS[slot]);
        let (out, t) = self.spans.time(self.parent, &name, f);
        self.times.merge_ms[slot] += t;
        out
    }

    /// Build the shared context, timed as `build.context`.
    pub fn context(&mut self, f: impl FnOnce() -> PipelineContext) -> PipelineContext {
        let (ctx, t) = self.spans.time(self.parent, "build.context", f);
        self.times.context_ms += t;
        ctx
    }
}

fn build_one<C: IndexComponent>(
    slot: usize,
    view: &SegmentView<'_>,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> C {
    let segment = rec.extract(slot, || C::build_segment(view, ctx));
    rec.merge(slot, || C::merge(&[&segment], &BTreeSet::new(), ctx))
}

/// The same pipeline `DiscoveryPipeline::build` makes from one
/// whole-view segment, built one component at a time.
pub fn build_pipeline(
    view: &SegmentView<'_>,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> DiscoveryPipeline {
    DiscoveryPipeline {
        profile: build_one::<LakeProfile>(0, view, ctx, rec),
        keyword: build_one::<KeywordSearch>(1, view, ctx, rec),
        exact_join: build_one::<ExactJoinSearch>(2, view, ctx, rec),
        containment_join: build_one::<ContainmentJoinSearch>(3, view, ctx, rec),
        fuzzy_join: build_one::<FuzzyJoinSearch<_>>(4, view, ctx, rec),
        mate: build_one::<MateSearch>(5, view, ctx, rec),
        correlated: build_one::<CorrelatedSearch>(6, view, ctx, rec),
        tus: build_one::<TusSearch>(7, view, ctx, rec),
        santos: build_one::<SantosSearch>(8, view, ctx, rec),
        starmie: build_one::<StarmieSearch<_>>(9, view, ctx, rec),
    }
}

fn extract_one<C: IndexComponent>(
    slot: usize,
    table: &Table,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> ArtifactOf<C> {
    rec.extract(slot, || C::extract(table, ctx))
}

/// One table's artifact bundle, equal to `TableArtifacts::extract`,
/// extracted one component at a time.
pub fn extract_table(
    table: &Table,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> TableArtifacts {
    TableArtifacts {
        profile: extract_one::<LakeProfile>(0, table, ctx, rec),
        keyword: extract_one::<KeywordSearch>(1, table, ctx, rec),
        exact_join: extract_one::<ExactJoinSearch>(2, table, ctx, rec),
        containment_join: extract_one::<ContainmentJoinSearch>(3, table, ctx, rec),
        fuzzy_join: extract_one::<FuzzyJoinSearch<_>>(4, table, ctx, rec),
        mate: extract_one::<MateSearch>(5, table, ctx, rec),
        correlated: extract_one::<CorrelatedSearch>(6, table, ctx, rec),
        tus: extract_one::<TusSearch>(7, table, ctx, rec),
        santos: extract_one::<SantosSearch>(8, table, ctx, rec),
        starmie: extract_one::<StarmieSearch<_>>(9, table, ctx, rec),
    }
}

fn merge_one<C: IndexComponent>(
    slot: usize,
    segments: Vec<&ComponentSegment<ArtifactOf<C>>>,
    tombstones: &BTreeSet<TableId>,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> C {
    rec.merge(slot, || C::merge(&segments, tombstones, ctx))
}

/// The merge `SegmentedPipeline::snapshot` performs over a segment
/// stack (oldest first), one component at a time.
pub fn merge_pipeline(
    segments: &[&PipelineSegment],
    tombstones: &BTreeSet<TableId>,
    ctx: &PipelineContext,
    rec: &mut Recorder<'_>,
) -> DiscoveryPipeline {
    macro_rules! project {
        ($get:ident) => {
            segments.iter().map(|s| s.$get()).collect()
        };
    }
    DiscoveryPipeline {
        profile: merge_one::<LakeProfile>(0, project!(profile), tombstones, ctx, rec),
        keyword: merge_one::<KeywordSearch>(1, project!(keyword), tombstones, ctx, rec),
        exact_join: merge_one::<ExactJoinSearch>(2, project!(exact_join), tombstones, ctx, rec),
        containment_join: merge_one::<ContainmentJoinSearch>(
            3,
            project!(containment_join),
            tombstones,
            ctx,
            rec,
        ),
        fuzzy_join: merge_one::<FuzzyJoinSearch<_>>(4, project!(fuzzy_join), tombstones, ctx, rec),
        mate: merge_one::<MateSearch>(5, project!(mate), tombstones, ctx, rec),
        correlated: merge_one::<CorrelatedSearch>(6, project!(correlated), tombstones, ctx, rec),
        tus: merge_one::<TusSearch>(7, project!(tus), tombstones, ctx, rec),
        santos: merge_one::<SantosSearch>(8, project!(santos), tombstones, ctx, rec),
        starmie: merge_one::<StarmieSearch<_>>(9, project!(starmie), tombstones, ctx, rec),
    }
}
