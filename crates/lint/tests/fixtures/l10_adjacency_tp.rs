//! L10 fixture (true positives): adjacency wrappers that build fresh
//! DFS scratch on every call, reached from the arrival hot path. Lines
//! are load-bearing.

fn process_point(&mut self, p: &Point, own: Option<(u64, u64)>) -> ProcessOutcome {
    if self.ctx.any_adjacent_sampled(p, self.level) {
        return ProcessOutcome::Rejected;
    }
    ProcessOutcome::Ignored
}

fn insert_first_point(&mut self, item: &StreamItem) -> ProcessOutcome {
    let folded = for_each_adjacent_cell_fold(grid, &item.point, alpha, 0, step, |_c, _k| false);
    let near = rds_geometry::for_each_adjacent_cell(grid, &item.point, alpha, |_c| true);
    ProcessOutcome::Ignored
}
