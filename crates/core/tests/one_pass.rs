//! One extraction pass equals ten: `PipelineSegment::build` (one
//! `TableArtifacts::extract` per table, fanned out across the machine's
//! cores) and the segment assembled from the ten per-component
//! `IndexComponent::build_segment` calls encode to the same td-store
//! bytes, component by component.

use td_core::join::{
    ContainmentJoinSearch, CorrelatedSearch, ExactJoinSearch, FuzzyJoinSearch, MateSearch,
};
use td_core::union::{SantosSearch, StarmieSearch, TusSearch};
use td_core::{
    IndexComponent, KeywordSearch, PipelineConfig, PipelineContext, PipelineSegment, SegmentView,
};
use td_store::artifacts::{encode_component, ComponentId};
use td_table::gen::lakegen::{GeneratedLake, LakeGenConfig, LakeGenerator};
use td_table::LakeProfile;

/// The segment the ten components build one at a time.
fn ten_passes(view: &SegmentView<'_>, ctx: &PipelineContext) -> PipelineSegment {
    PipelineSegment::from_components(
        LakeProfile::build_segment(view, ctx),
        KeywordSearch::build_segment(view, ctx),
        ExactJoinSearch::build_segment(view, ctx),
        ContainmentJoinSearch::build_segment(view, ctx),
        FuzzyJoinSearch::build_segment(view, ctx),
        MateSearch::build_segment(view, ctx),
        CorrelatedSearch::build_segment(view, ctx),
        TusSearch::build_segment(view, ctx),
        SantosSearch::build_segment(view, ctx),
        StarmieSearch::build_segment(view, ctx),
    )
}

fn assert_same_encoding(gl: &GeneratedLake, view: &SegmentView<'_>) {
    let cfg = PipelineConfig::default();
    // A context each, so neither path reads n-gram rows the other
    // memoized.
    let one = PipelineSegment::build(view, &PipelineContext::new(&gl.registry, &[], &cfg));
    let ten = ten_passes(view, &PipelineContext::new(&gl.registry, &[], &cfg));
    assert_eq!(one.len(), view.len());
    assert_eq!(one.table_ids(), ten.table_ids());
    for comp in ComponentId::ALL {
        assert!(
            encode_component(&one, comp) == encode_component(&ten, comp),
            "{} differs between one pass and ten",
            comp.name()
        );
    }
}

fn lake() -> GeneratedLake {
    LakeGenerator::standard().generate(&LakeGenConfig {
        num_tables: 48,
        rows: (8, 24),
        cols: (2, 4),
        seed: 20261017,
        ..LakeGenConfig::default()
    })
}

#[test]
fn one_pass_over_a_lake_encodes_like_ten_component_builds() {
    let gl = lake();
    assert_same_encoding(&gl, &SegmentView::of_lake(&gl.lake));
}

#[test]
fn one_pass_over_an_unsorted_partial_view_encodes_like_ten() {
    let gl = lake();
    let mut entries: Vec<_> = gl.lake.iter().filter(|(id, _)| id.0 % 3 != 1).collect();
    entries.reverse();
    assert_same_encoding(&gl, &SegmentView::new(entries));
}
