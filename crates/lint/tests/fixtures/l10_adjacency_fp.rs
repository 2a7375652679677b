//! L10 fixture (false positives): the scratch-taking `_with` forms on
//! the hot path, the allocating wrappers on cold paths, their names in
//! comments, strings and non-call paths, and test code. Nothing here
//! may fire.

fn process_point(&mut self, p: &Point) -> ProcessOutcome {
    // any_adjacent_sampled(p, level) in a comment stays silent
    let hit = self.ctx.any_adjacent_sampled_with(p, self.level, &mut self.adj_scratch);
    let walked =
        for_each_adjacent_cell_fold_with(grid, p, alpha, 0, step, |_c, _k| false, &mut self.adj_scratch);
    let label = "for_each_adjacent_cell(grid, p, alpha, visit)";
    let wrapper = SamplerContext::any_adjacent_sampled;
    ProcessOutcome::Ignored
}

fn double_rate(&mut self) {
    self.store
        .retain_after_doubling(|_h| true, |rep| self.ctx.any_adjacent_sampled(rep, self.level));
}

pub fn any_adjacent_sampled(&self, p: &Point, level: u32) -> bool {
    self.any_adjacent_sampled_with(p, level, &mut AdjacencyScratch::new())
}

#[cfg(test)]
mod tests {
    fn process(ctx: &SamplerContext, p: &Point) -> bool {
        ctx.any_adjacent_sampled(p, 0)
    }
}
