//! The benchmark's own oracle for served answers, and the torn-read
//! classifier for reads that overlap cross-shard installs.
//!
//! A global state `j` is the cube after the first `j` installs. It was
//! possibly current from the moment install `j` began until install `j+1`
//! returned, so a read is checked against every state current at any
//! instant between its call and its return (the admissible states).

use crate::load::{Batch, InstallRec, Op, Rect};
use olap_array::DenseArray;

/// How a read's answer compares with the admissible states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the answer of one admissible global state.
    Ok,
    /// Equal to a per-shard mix of admissible states, but to no single one.
    Torn,
    /// Equal to neither.
    Failed,
}

/// Oracle over a 2-d cube served by row-slab shards.
pub struct Oracle<'a> {
    width: usize,
    cube: &'a [i64],
    /// `(rows+1) × (width+1)` inclusive prefix sums with a zero border.
    prefix: Vec<i64>,
    /// Inclusive global row bounds of each shard.
    slabs: Vec<(usize, usize)>,
    /// For each state, every cell changed since state 0 as
    /// `(row, col, value − initial value)`, sorted by row then column.
    states: Vec<Vec<(usize, usize, i64)>>,
    /// `(start_ns, end_ns)` of the install that produced state `j + 1`.
    installs: Vec<(u64, u64)>,
}

impl<'a> Oracle<'a> {
    /// An oracle for `cube` (state 0 only) split into `slabs`.
    pub fn new(cube: &'a DenseArray<i64>, slabs: Vec<(usize, usize)>) -> Oracle<'a> {
        assert_eq!(cube.shape().ndim(), 2, "the oracle covers 2-d cubes");
        let (rows, width) = (cube.shape().dim(0), cube.shape().dim(1));
        let data = cube.as_slice();
        let w1 = width + 1;
        let mut prefix = vec![0i64; (rows + 1) * w1];
        for r in 0..rows {
            let mut run = 0i64;
            for c in 0..width {
                run += data[r * width + c];
                prefix[(r + 1) * w1 + c + 1] = prefix[r * w1 + c + 1] + run;
            }
        }
        Oracle {
            width,
            cube: data,
            prefix,
            slabs,
            states: vec![Vec::new()],
            installs: Vec::new(),
        }
    }

    /// Adds the states produced by successful installs of `batches`, in
    /// install order. Later cells of a batch win over earlier ones.
    pub fn with_installs(mut self, batches: &[Batch], installs: &[InstallRec]) -> Oracle<'a> {
        let mut current: std::collections::BTreeMap<(usize, usize), i64> = Default::default();
        for rec in installs {
            assert!(rec.ok, "a failed install leaves no single known state");
            for (idx, v) in &batches[rec.batch] {
                let (r, c) = (idx[0], idx[1]);
                current.insert((r, c), v - self.cube[r * self.width + c]);
            }
            self.states
                .push(current.iter().map(|(&(r, c), &d)| (r, c, d)).collect());
            self.installs.push((rec.start_ns, rec.end_ns));
        }
        self
    }

    /// Shards whose slab `rect` overlaps.
    fn shards_of(&self, rect: &Rect) -> Vec<usize> {
        (0..self.slabs.len())
            .filter(|&s| rect.r0 <= self.slabs[s].1 && rect.r1 >= self.slabs[s].0)
            .collect()
    }

    /// Whether `rect` spans more than one shard.
    pub fn is_cross_shard(&self, rect: &Rect) -> bool {
        self.shards_of(rect).len() > 1
    }

    /// The admissible states of a read that ran over `[start_ns, end_ns]`.
    fn admissible(&self, start_ns: u64, end_ns: u64) -> std::ops::RangeInclusive<usize> {
        let k = self.installs.len();
        // State j is admissible iff install j began by the read's return
        // and install j+1 had not returned before the read's call.
        let hi = (1..=k)
            .rev()
            .find(|&j| self.installs[j - 1].0 <= end_ns)
            .unwrap_or(0);
        let lo = (0..k)
            .find(|&j| self.installs[j].1 >= start_ns)
            .unwrap_or(k);
        lo.min(hi)..=hi
    }

    /// Sum over the part of `rect` inside shard `s`, in state `j`.
    fn partial(&self, s: usize, j: usize, rect: &Rect) -> i64 {
        let (r0, r1) = (rect.r0.max(self.slabs[s].0), rect.r1.min(self.slabs[s].1));
        let w1 = self.width + 1;
        let at = |r: usize, c: usize| self.prefix[r * w1 + c];
        let base =
            at(r1 + 1, rect.c1 + 1) - at(r0, rect.c1 + 1) - at(r1 + 1, rect.c0) + at(r0, rect.c0);
        let cells = &self.states[j];
        let first = cells.partition_point(|&(r, _, _)| r < r0);
        let last = cells.partition_point(|&(r, _, _)| r <= r1);
        let delta: i64 = cells[first..last]
            .iter()
            .filter(|&&(_, c, _)| (rect.c0..=rect.c1).contains(&c))
            .map(|&(_, _, d)| d)
            .sum();
        base + delta
    }

    /// Classifies a served range sum over `rect` that ran over
    /// `[start_ns, end_ns]`.
    pub fn check_sum(&self, rect: &Rect, value: i64, start_ns: u64, end_ns: u64) -> Verdict {
        let states: Vec<usize> = self.admissible(start_ns, end_ns).collect();
        let shards = self.shards_of(rect);
        // parts[i][k]: shard shards[i] in state states[k].
        let parts: Vec<Vec<i64>> = shards
            .iter()
            .map(|&s| states.iter().map(|&j| self.partial(s, j, rect)).collect())
            .collect();
        if (0..states.len()).any(|k| parts.iter().map(|p| p[k]).sum::<i64>() == value) {
            return Verdict::Ok;
        }
        // Every per-shard choice of admissible state (|states|^|shards|).
        let combos = states.len().pow(shards.len() as u32);
        let torn = (0..combos).any(|mut code| {
            let mut total = 0;
            for p in &parts {
                total += p[code % states.len()];
                code /= states.len();
            }
            total == value
        });
        if torn {
            Verdict::Torn
        } else {
            Verdict::Failed
        }
    }

    /// Checks a served range max/min over `rect` against a fold over the
    /// region. (That `at` lies in the region and holds the value is checked
    /// when the read is recorded.) Only state 0 is covered: no workload
    /// mixes extrema with installs.
    pub fn check_extremum(&self, rect: &Rect, op: Op, value: i64) -> Verdict {
        assert!(
            self.installs.is_empty(),
            "extrema are checked against state 0 only"
        );
        let rows = (rect.r0..=rect.r1)
            .map(|r| &self.cube[r * self.width + rect.c0..=r * self.width + rect.c1]);
        let folded = match op {
            Op::Max => rows.filter_map(|row| row.iter().max().copied()).max(),
            _ => rows.filter_map(|row| row.iter().min().copied()).min(),
        };
        if folded == Some(value) {
            Verdict::Ok
        } else {
            Verdict::Failed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_array::Shape;

    /// A 4×3 cube split into rows 0..=1 and 2..=3, with one install over
    /// [100, 200] ns touching one cell in each shard.
    fn fixture(cube: &DenseArray<i64>) -> Oracle<'_> {
        let batches = vec![vec![
            (vec![0, 0], cube.get(&[0, 0]) + 5),
            (vec![3, 2], cube.get(&[3, 2]) + 7),
        ]];
        let installs = [InstallRec {
            batch: 0,
            scheduled_ns: 100,
            start_ns: 100,
            end_ns: 200,
            ok: true,
        }];
        Oracle::new(cube, vec![(0, 1), (2, 3)]).with_installs(&batches, &installs)
    }

    fn cube() -> DenseArray<i64> {
        DenseArray::from_fn(Shape::new(&[4, 3]).unwrap(), |i| (i[0] * 3 + i[1]) as i64)
    }

    const ALL: Rect = Rect {
        r0: 0,
        r1: 3,
        c0: 0,
        c1: 2,
    };

    #[test]
    fn perturbed_answer_is_failed() {
        let cube = cube();
        let oracle = Oracle::new(&cube, vec![(0, 1), (2, 3)]);
        let truth: i64 = (0..12).sum();
        assert_eq!(oracle.check_sum(&ALL, truth, 0, 10), Verdict::Ok);
        assert_eq!(oracle.check_sum(&ALL, truth + 1, 0, 10), Verdict::Failed);
        let inner = Rect {
            r0: 1,
            r1: 2,
            c0: 1,
            c1: 2,
        };
        // Cells (1,1)=4 (1,2)=5 (2,1)=7 (2,2)=8.
        assert_eq!(oracle.check_extremum(&inner, Op::Max, 8), Verdict::Ok);
        assert_eq!(oracle.check_extremum(&inner, Op::Max, 9), Verdict::Failed);
        assert_eq!(oracle.check_extremum(&inner, Op::Min, 4), Verdict::Ok);
        assert_eq!(oracle.check_extremum(&inner, Op::Min, 5), Verdict::Failed);
    }

    #[test]
    fn per_shard_mix_is_torn_not_failed() {
        let cube = cube();
        let oracle = fixture(&cube);
        let base: i64 = (0..12).sum();
        // A read overlapping the install may see either global state...
        assert_eq!(oracle.check_sum(&ALL, base, 150, 160), Verdict::Ok);
        assert_eq!(oracle.check_sum(&ALL, base + 12, 150, 160), Verdict::Ok);
        // ...or, torn, shard 0 after the install and shard 1 before it.
        assert_eq!(oracle.check_sum(&ALL, base + 5, 150, 160), Verdict::Torn);
        assert_eq!(oracle.check_sum(&ALL, base + 7, 150, 160), Verdict::Torn);
        assert_eq!(oracle.check_sum(&ALL, base + 1, 150, 160), Verdict::Failed);
        // Reads wholly before or after the install admit one state only.
        assert_eq!(oracle.check_sum(&ALL, base + 5, 10, 20), Verdict::Failed);
        assert_eq!(oracle.check_sum(&ALL, base + 12, 10, 20), Verdict::Failed);
        assert_eq!(oracle.check_sum(&ALL, base, 300, 400), Verdict::Failed);
        assert_eq!(oracle.check_sum(&ALL, base + 12, 300, 400), Verdict::Ok);
    }
}
