//! Segmented offline layer: per-table artifacts, immutable segments, and
//! the [`IndexComponent`] contract every search family implements.
//!
//! The batch [`crate::DiscoveryPipeline::build`] and the incremental
//! [`crate::SegmentedPipeline`] both assemble their indices from the same
//! per-table **artifacts** through the same `merge` code path, which is
//! what makes "incremental == batch" hold byte-for-byte rather than
//! approximately: there is no second implementation to drift.
//!
//! The shape is LSM-like. A [`PipelineSegment`] is an immutable bundle of
//! per-table artifacts for all ten components; a lake is any stack of
//! segments plus a tombstone set, flattened last-write-wins by
//! [`live_entries`] before each component's `merge` rebuilds its
//! searchable form.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use td_embed::model::{DomainEmbedder, NGramEmbedder};
use td_table::gen::bench_union::RelationSpec;
use td_table::gen::domains::DomainRegistry;
use td_table::{ColumnProfile, ColumnRef, DataLake, LakeProfile, Table, TableId};
use td_understand::kb::KnowledgeBase;

use crate::batch::run_batch;
use crate::join::{
    ContainmentJoinSearch, CorrelatedSearch, ExactJoinSearch, FuzzyJoinSearch, MateSearch,
};
use crate::keyword::KeywordSearch;
use crate::pipeline::PipelineConfig;
use crate::union::{SantosConfig, SantosSearch, StarmieSearch, TusSearch};

/// Shared expensive assets every component build draws from: the embedding
/// models and the knowledge base. Built once per lake lifetime; table
/// ingest and segment merges reuse it, which is most of what makes a
/// single-table delta ingest cheap relative to a full rebuild.
#[derive(Clone)]
pub struct PipelineContext {
    /// Construction parameters.
    pub cfg: PipelineConfig,
    /// Ontology-like embedder (TUS semantic signal, Starmie encoder).
    pub domain_emb: DomainEmbedder,
    /// Distributional n-gram embedder (fuzzy join, TUS NL signal).
    pub ngram_emb: NGramEmbedder,
    /// Knowledge base backing SANTOS annotation.
    pub kb: KnowledgeBase,
    /// SANTOS scoring/annotation configuration.
    pub santos: SantosConfig,
}

impl PipelineContext {
    /// Build the shared assets for a lake world. Same inputs as
    /// [`crate::DiscoveryPipeline::build`]: the registry supplies the
    /// embedding/ontology world, `relations` the KB relation specs.
    #[must_use]
    pub fn new(
        registry: &DomainRegistry,
        relations: &[RelationSpec],
        cfg: &PipelineConfig,
    ) -> Self {
        let kb = {
            let _s = td_obs::span!("pipeline.kb.build");
            KnowledgeBase::build(registry, relations, &cfg.kb)
        };
        PipelineContext {
            cfg: cfg.clone(),
            domain_emb: DomainEmbedder::from_registry(registry, 2_048, cfg.dim, 0.4, cfg.seed),
            ngram_emb: cfg.ngram_embedder(),
            kb,
            santos: SantosConfig::default(),
        }
    }
}

/// A borrowed, id-ordered slice of a lake: the unit a segment is built
/// from. Ids are caller-assigned so an incremental ingest can mirror the
/// ids a one-shot lake would have handed out.
pub struct SegmentView<'a> {
    entries: Vec<(TableId, &'a Table)>,
}

impl<'a> SegmentView<'a> {
    /// View over explicit `(id, table)` pairs (sorted by id internally).
    #[must_use]
    pub fn new(mut entries: Vec<(TableId, &'a Table)>) -> Self {
        entries.sort_by_key(|(id, _)| *id);
        SegmentView { entries }
    }

    /// View over a whole lake.
    #[must_use]
    pub fn of_lake(lake: &'a DataLake) -> Self {
        SegmentView {
            entries: lake.iter().collect(),
        }
    }

    /// Iterate the `(id, table)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &'a Table)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of tables in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the view holds no tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One component's per-table artifacts for one segment, kept sorted by
/// table id with at most one entry per table.
#[derive(Debug, Clone, Default)]
pub struct ComponentSegment<A> {
    entries: Vec<(TableId, A)>,
}

impl<A> ComponentSegment<A> {
    /// Empty segment.
    #[must_use]
    pub fn new() -> Self {
        ComponentSegment {
            entries: Vec::new(),
        }
    }

    /// Segment from `(id, artifact)` pairs (sorted by id internally; a
    /// duplicated id keeps the later pair).
    #[must_use]
    pub fn from_entries(mut entries: Vec<(TableId, A)>) -> Self {
        entries.sort_by_key(|(id, _)| *id);
        entries.reverse();
        let mut seen = BTreeSet::new();
        entries.retain(|(id, _)| seen.insert(*id));
        entries.reverse();
        ComponentSegment { entries }
    }

    /// Insert or replace the artifact for one table.
    pub fn upsert(&mut self, id: TableId, artifact: A) {
        match self.entries.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(pos) => self.entries[pos].1 = artifact,
            Err(pos) => self.entries.insert(pos, (id, artifact)),
        }
    }

    /// Remove a table's artifact; true if one was present.
    pub fn remove(&mut self, id: TableId) -> bool {
        match self.entries.binary_search_by_key(&id, |(i, _)| *i) {
            Ok(pos) => {
                self.entries.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The `(id, artifact)` pairs, ascending by id.
    #[must_use]
    pub fn entries(&self) -> &[(TableId, A)] {
        &self.entries
    }

    /// Number of tables with an artifact.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the segment holds no artifacts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Flatten a stack of segments (oldest first) into the live `(id,
/// artifact)` list: for each table the **newest** segment's artifact wins,
/// tombstoned tables are dropped, and the result is ascending by id —
/// exactly the order a one-shot batch build would visit the lake in.
#[must_use]
pub fn live_entries<A: Clone>(
    segments: &[&ComponentSegment<A>],
    tombstones: &BTreeSet<TableId>,
) -> Vec<(TableId, A)> {
    let mut live: BTreeMap<TableId, &A> = BTreeMap::new();
    for seg in segments {
        for (id, artifact) in &seg.entries {
            live.insert(*id, artifact);
        }
    }
    live.into_iter()
        .filter(|(id, _)| !tombstones.contains(id))
        .map(|(id, artifact)| (id, artifact.clone()))
        .collect()
}

/// The contract every search family implements to participate in the
/// segmented pipeline: extract an immutable per-table artifact, bundle
/// artifacts into segments, and merge any stack of segments back into the
/// searchable form.
///
/// `merge` over a single whole-lake segment **is** the batch build — the
/// pipeline has no other construction path — so incremental and one-shot
/// results cannot drift apart.
pub trait IndexComponent: Sized {
    /// Immutable per-table artifact this component stores in a segment.
    type Artifact: Clone + Send + Sync + 'static;
    /// Borrowed query input for [`Self::search_merged`].
    type Query<'q>;
    /// Ranked hits returned by [`Self::search_merged`].
    type Hits;

    /// Extract one table's artifact. Pure per-table work — this is the
    /// only part of the pipeline that touches raw table values.
    fn extract(table: &Table, ctx: &PipelineContext) -> Self::Artifact;

    /// Build a sealed segment over a view (default: map [`Self::extract`]
    /// over the view's tables).
    fn build_segment(
        view: &SegmentView<'_>,
        ctx: &PipelineContext,
    ) -> ComponentSegment<Self::Artifact> {
        ComponentSegment::from_entries(
            view.iter()
                .map(|(id, t)| (id, Self::extract(t, ctx)))
                .collect(),
        )
    }

    /// Merge a stack of segments (oldest first, minus tombstones) into the
    /// searchable component.
    fn merge(
        segments: &[&ComponentSegment<Self::Artifact>],
        tombstones: &BTreeSet<TableId>,
        ctx: &PipelineContext,
    ) -> Self;

    /// Query the merged component.
    fn search_merged(&self, query: Self::Query<'_>, k: usize) -> Self::Hits;
}

/// Convenient alias for a component's artifact type.
pub type ArtifactOf<C> = <C as IndexComponent>::Artifact;

impl IndexComponent for LakeProfile {
    /// Per table: one [`ColumnProfile`] per column, in column order.
    type Artifact = Vec<ColumnProfile>;
    type Query<'q> = ColumnRef;
    type Hits = Option<ColumnProfile>;

    fn extract(table: &Table, _ctx: &PipelineContext) -> Self::Artifact {
        table.columns.iter().map(ColumnProfile::of).collect()
    }

    fn merge(
        segments: &[&ComponentSegment<Self::Artifact>],
        tombstones: &BTreeSet<TableId>,
        _ctx: &PipelineContext,
    ) -> Self {
        let pairs: Vec<(ColumnRef, ColumnProfile)> = live_entries(segments, tombstones)
            .into_iter()
            .flat_map(|(id, cols)| {
                cols.into_iter()
                    .enumerate()
                    .map(move |(ci, p)| (ColumnRef::new(id, ci), p))
            })
            .collect();
        LakeProfile::from(pairs)
    }

    fn search_merged(&self, query: Self::Query<'_>, _k: usize) -> Self::Hits {
        let _probe = td_obs::trace::probe("probe.profile");
        self.get(query).cloned()
    }
}

/// One table's artifacts across all ten components — the unit a
/// write-ahead log records and [`PipelineSegment::insert_artifacts`]
/// replays. Extracting this bundle and upserting it is *the* ingest code
/// path ([`PipelineSegment::insert`] goes through it), so an ingest
/// replayed from a log carries value-identical artifacts by construction.
#[derive(Clone)]
pub struct TableArtifacts {
    /// Per-column statistics ([`LakeProfile`] artifact).
    pub profile: ArtifactOf<LakeProfile>,
    /// Metadata/schema document ([`KeywordSearch`] artifact).
    pub keyword: ArtifactOf<KeywordSearch>,
    /// Sorted distinct tokens per column ([`ExactJoinSearch`] artifact).
    pub exact_join: ArtifactOf<ExactJoinSearch>,
    /// MinHash signatures per column ([`ContainmentJoinSearch`] artifact).
    pub containment_join: ArtifactOf<ContainmentJoinSearch>,
    /// Embedded value vectors per column ([`FuzzyJoinSearch`] artifact).
    pub fuzzy_join: ArtifactOf<FuzzyJoinSearch<NGramEmbedder>>,
    /// Row-hash postings ([`MateSearch`] artifact).
    pub mate: ArtifactOf<MateSearch>,
    /// QCR sketches per key/numeric column pair ([`CorrelatedSearch`]
    /// artifact).
    pub correlated: ArtifactOf<CorrelatedSearch>,
    /// Per-column unionability evidence ([`TusSearch`] artifact).
    pub tus: ArtifactOf<TusSearch>,
    /// Annotated type/relationship signature ([`SantosSearch`] artifact).
    pub santos: ArtifactOf<SantosSearch>,
    /// Contextual column embeddings ([`StarmieSearch`] artifact).
    pub starmie: ArtifactOf<StarmieSearch<DomainEmbedder>>,
}

impl TableArtifacts {
    /// Extract every component's artifact for one table.
    #[must_use]
    pub fn extract(table: &Table, ctx: &PipelineContext) -> Self {
        let mut times = ExtractTimes::default();
        let artifacts = Self::extract_timed(table, ctx, &mut times);
        times.record(ctx);
        artifacts
    }

    /// [`Self::extract`], adding each component's time to `times`.
    fn extract_timed(table: &Table, ctx: &PipelineContext, times: &mut ExtractTimes) -> Self {
        TableArtifacts {
            profile: times.time(0, || LakeProfile::extract(table, ctx)),
            keyword: times.time(1, || KeywordSearch::extract(table, ctx)),
            exact_join: times.time(2, || ExactJoinSearch::extract(table, ctx)),
            containment_join: times.time(3, || ContainmentJoinSearch::extract(table, ctx)),
            fuzzy_join: times.time(4, || FuzzyJoinSearch::<NGramEmbedder>::extract(table, ctx)),
            mate: times.time(5, || MateSearch::extract(table, ctx)),
            correlated: times.time(6, || CorrelatedSearch::extract(table, ctx)),
            tus: times.time(7, || TusSearch::extract(table, ctx)),
            santos: times.time(8, || SantosSearch::extract(table, ctx)),
            starmie: times.time(9, || StarmieSearch::<DomainEmbedder>::extract(table, ctx)),
        }
    }
}

/// The ten components, in [`TableArtifacts`] field order.
const COMPONENTS: [&str; 10] = [
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

/// Extraction time per component (indexed like [`COMPONENTS`]), summed
/// over tables and recorded once per build or ingest.
#[derive(Default)]
struct ExtractTimes([Duration; 10]);

impl ExtractTimes {
    fn time<T>(&mut self, slot: usize, f: impl FnOnce() -> T) -> T {
        let (out, took) = td_obs::time(f);
        self.0[slot] += took;
        out
    }

    /// Record each component's total as one `pipeline.extract.<component>`
    /// sample, and the size of the context's n-gram row memos (the n-gram
    /// embedder's and the domain embedder's fallback).
    fn record(&self, ctx: &PipelineContext) {
        let reg = td_obs::global();
        for (name, took) in COMPONENTS.iter().zip(self.0) {
            reg.histogram(&format!("pipeline.extract.{name}"))
                .record_duration(took);
        }
        let memos = [&ctx.ngram_emb, ctx.domain_emb.fallback()];
        let rows: usize = memos.iter().map(|e| e.memo_rows()).sum();
        let bytes: usize = memos.iter().map(|e| e.memo_bytes()).sum();
        reg.gauge("embed.ngram.memo_rows").set(rows as f64);
        reg.gauge("embed.ngram.memo_bytes").set(bytes as f64);
    }
}

/// All ten components' artifacts for one set of tables — the unit the
/// [`crate::SegmentedPipeline`] seals, stacks, and compacts.
#[derive(Clone, Default)]
pub struct PipelineSegment {
    pub(crate) profile: ComponentSegment<ArtifactOf<LakeProfile>>,
    pub(crate) keyword: ComponentSegment<ArtifactOf<KeywordSearch>>,
    pub(crate) exact_join: ComponentSegment<ArtifactOf<ExactJoinSearch>>,
    pub(crate) containment_join: ComponentSegment<ArtifactOf<ContainmentJoinSearch>>,
    pub(crate) fuzzy_join: ComponentSegment<ArtifactOf<FuzzyJoinSearch<NGramEmbedder>>>,
    pub(crate) mate: ComponentSegment<ArtifactOf<MateSearch>>,
    pub(crate) correlated: ComponentSegment<ArtifactOf<CorrelatedSearch>>,
    pub(crate) tus: ComponentSegment<ArtifactOf<TusSearch>>,
    pub(crate) santos: ComponentSegment<ArtifactOf<SantosSearch>>,
    pub(crate) starmie: ComponentSegment<ArtifactOf<StarmieSearch<DomainEmbedder>>>,
}

impl PipelineSegment {
    /// Extract every component's artifacts for every table in the view:
    /// one [`TableArtifacts::extract`] pass per table, with contiguous
    /// runs of tables on the machine's cores ([`run_batch`]). Artifacts
    /// are inserted in view order, so the segment is the same on any
    /// core count.
    #[must_use]
    pub fn build(view: &SegmentView<'_>, ctx: &PipelineContext) -> Self {
        let _s = td_obs::span!("pipeline.extract");
        let extracted = run_batch(&view.entries, |&(id, table)| {
            let mut times = ExtractTimes::default();
            let artifacts = TableArtifacts::extract_timed(table, ctx, &mut times);
            (id, artifacts, times)
        });
        let mut segment = PipelineSegment::default();
        let mut total = ExtractTimes::default();
        for (id, artifacts, times) in extracted {
            for (sum, took) in total.0.iter_mut().zip(times.0) {
                *sum += took;
            }
            segment.insert_artifacts(id, artifacts);
        }
        total.record(ctx);
        segment
    }

    /// Extract and upsert one table's artifacts into this segment.
    pub fn insert(&mut self, id: TableId, table: &Table, ctx: &PipelineContext) {
        let _s = td_obs::span!("pipeline.extract");
        self.insert_artifacts(id, TableArtifacts::extract(table, ctx));
    }

    /// Upsert one table's already-extracted artifact bundle — the replay
    /// half of the ingest path: a persisted [`TableArtifacts`] inserted
    /// here lands exactly where [`Self::insert`] would have put it.
    pub fn insert_artifacts(&mut self, id: TableId, a: TableArtifacts) {
        self.profile.upsert(id, a.profile);
        self.keyword.upsert(id, a.keyword);
        self.exact_join.upsert(id, a.exact_join);
        self.containment_join.upsert(id, a.containment_join);
        self.fuzzy_join.upsert(id, a.fuzzy_join);
        self.mate.upsert(id, a.mate);
        self.correlated.upsert(id, a.correlated);
        self.tus.upsert(id, a.tus);
        self.santos.upsert(id, a.santos);
        self.starmie.upsert(id, a.starmie);
    }

    /// Remove one table's artifacts; true if the table was present.
    pub fn remove(&mut self, id: TableId) -> bool {
        let present = self.keyword.remove(id);
        self.profile.remove(id);
        self.exact_join.remove(id);
        self.containment_join.remove(id);
        self.fuzzy_join.remove(id);
        self.mate.remove(id);
        self.correlated.remove(id);
        self.tus.remove(id);
        self.santos.remove(id);
        self.starmie.remove(id);
        present
    }

    /// Flatten a stack of segments into one (last write wins, tombstones
    /// dropped) — pure artifact concatenation, no re-extraction.
    #[must_use]
    pub fn from_live(segments: &[&PipelineSegment], tombstones: &BTreeSet<TableId>) -> Self {
        PipelineSegment {
            profile: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.profile).collect::<Vec<_>>(),
                tombstones,
            )),
            keyword: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.keyword).collect::<Vec<_>>(),
                tombstones,
            )),
            exact_join: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.exact_join).collect::<Vec<_>>(),
                tombstones,
            )),
            containment_join: ComponentSegment::from_entries(live_entries(
                &segments
                    .iter()
                    .map(|s| &s.containment_join)
                    .collect::<Vec<_>>(),
                tombstones,
            )),
            fuzzy_join: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.fuzzy_join).collect::<Vec<_>>(),
                tombstones,
            )),
            mate: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.mate).collect::<Vec<_>>(),
                tombstones,
            )),
            correlated: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.correlated).collect::<Vec<_>>(),
                tombstones,
            )),
            tus: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.tus).collect::<Vec<_>>(),
                tombstones,
            )),
            santos: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.santos).collect::<Vec<_>>(),
                tombstones,
            )),
            starmie: ComponentSegment::from_entries(live_entries(
                &segments.iter().map(|s| &s.starmie).collect::<Vec<_>>(),
                tombstones,
            )),
        }
    }

    /// Assemble a segment directly from its ten component segments — the
    /// deserialization hook for `td-store`'s snapshot reader. Every
    /// component is expected to cover the same table ids (the invariant
    /// [`Self::insert_artifacts`] maintains); a mismatched set merges
    /// last-write-wins like any other stack.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn from_components(
        profile: ComponentSegment<ArtifactOf<LakeProfile>>,
        keyword: ComponentSegment<ArtifactOf<KeywordSearch>>,
        exact_join: ComponentSegment<ArtifactOf<ExactJoinSearch>>,
        containment_join: ComponentSegment<ArtifactOf<ContainmentJoinSearch>>,
        fuzzy_join: ComponentSegment<ArtifactOf<FuzzyJoinSearch<NGramEmbedder>>>,
        mate: ComponentSegment<ArtifactOf<MateSearch>>,
        correlated: ComponentSegment<ArtifactOf<CorrelatedSearch>>,
        tus: ComponentSegment<ArtifactOf<TusSearch>>,
        santos: ComponentSegment<ArtifactOf<SantosSearch>>,
        starmie: ComponentSegment<ArtifactOf<StarmieSearch<DomainEmbedder>>>,
    ) -> Self {
        PipelineSegment {
            profile,
            keyword,
            exact_join,
            containment_join,
            fuzzy_join,
            mate,
            correlated,
            tus,
            santos,
            starmie,
        }
    }

    /// The profile component ([`LakeProfile`] artifacts), ascending by id.
    #[must_use]
    pub fn profile(&self) -> &ComponentSegment<ArtifactOf<LakeProfile>> {
        &self.profile
    }

    /// The keyword component ([`KeywordSearch`] artifacts).
    #[must_use]
    pub fn keyword(&self) -> &ComponentSegment<ArtifactOf<KeywordSearch>> {
        &self.keyword
    }

    /// The exact-join component ([`ExactJoinSearch`] artifacts).
    #[must_use]
    pub fn exact_join(&self) -> &ComponentSegment<ArtifactOf<ExactJoinSearch>> {
        &self.exact_join
    }

    /// The containment-join component ([`ContainmentJoinSearch`]
    /// artifacts).
    #[must_use]
    pub fn containment_join(&self) -> &ComponentSegment<ArtifactOf<ContainmentJoinSearch>> {
        &self.containment_join
    }

    /// The fuzzy-join component ([`FuzzyJoinSearch`] artifacts).
    #[must_use]
    pub fn fuzzy_join(&self) -> &ComponentSegment<ArtifactOf<FuzzyJoinSearch<NGramEmbedder>>> {
        &self.fuzzy_join
    }

    /// The MATE component ([`MateSearch`] artifacts).
    #[must_use]
    pub fn mate(&self) -> &ComponentSegment<ArtifactOf<MateSearch>> {
        &self.mate
    }

    /// The correlated-search component ([`CorrelatedSearch`] artifacts).
    #[must_use]
    pub fn correlated(&self) -> &ComponentSegment<ArtifactOf<CorrelatedSearch>> {
        &self.correlated
    }

    /// The TUS component ([`TusSearch`] artifacts).
    #[must_use]
    pub fn tus(&self) -> &ComponentSegment<ArtifactOf<TusSearch>> {
        &self.tus
    }

    /// The SANTOS component ([`SantosSearch`] artifacts).
    #[must_use]
    pub fn santos(&self) -> &ComponentSegment<ArtifactOf<SantosSearch>> {
        &self.santos
    }

    /// The Starmie component ([`StarmieSearch`] artifacts).
    #[must_use]
    pub fn starmie(&self) -> &ComponentSegment<ArtifactOf<StarmieSearch<DomainEmbedder>>> {
        &self.starmie
    }

    /// Ids of tables carried by this segment (every component covers every
    /// table, so the keyword component is representative).
    #[must_use]
    pub fn table_ids(&self) -> Vec<TableId> {
        self.keyword.entries().iter().map(|(id, _)| *id).collect()
    }

    /// Number of tables in this segment.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keyword.len()
    }

    /// True if the segment carries no tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keyword.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_table::Column;

    fn table(n: &str, vals: &[&str]) -> Table {
        Table::new(n, vec![Column::from_strings("c", vals)]).expect("valid table")
    }

    #[test]
    fn component_segment_upsert_remove_keeps_sorted_unique() {
        let mut seg: ComponentSegment<u32> = ComponentSegment::new();
        seg.upsert(TableId(3), 30);
        seg.upsert(TableId(1), 10);
        seg.upsert(TableId(3), 31);
        assert_eq!(seg.entries(), &[(TableId(1), 10), (TableId(3), 31)]);
        assert!(seg.remove(TableId(1)));
        assert!(!seg.remove(TableId(1)));
        assert_eq!(seg.len(), 1);
    }

    #[test]
    fn from_entries_keeps_last_duplicate() {
        let seg = ComponentSegment::from_entries(vec![
            (TableId(2), 'a'),
            (TableId(1), 'b'),
            (TableId(2), 'c'),
        ]);
        assert_eq!(seg.entries(), &[(TableId(1), 'b'), (TableId(2), 'c')]);
    }

    #[test]
    fn live_entries_last_write_wins_and_tombstones_drop() {
        let old = ComponentSegment::from_entries(vec![(TableId(0), 1u8), (TableId(1), 1)]);
        let new = ComponentSegment::from_entries(vec![(TableId(1), 2u8), (TableId(2), 2)]);
        let mut tombs = BTreeSet::new();
        tombs.insert(TableId(0));
        let live = live_entries(&[&old, &new], &tombs);
        assert_eq!(live, vec![(TableId(1), 2), (TableId(2), 2)]);
    }

    #[test]
    fn segment_view_sorts_by_id() {
        let a = table("a.csv", &["x"]);
        let b = table("b.csv", &["y"]);
        let v = SegmentView::new(vec![(TableId(5), &b), (TableId(2), &a)]);
        let ids: Vec<TableId> = v.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![TableId(2), TableId(5)]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
    }
}
