//! Reference-line geometry computed here, apart from the program's own
//! path code, so the accuracy checks do not trust what they check.

use raceloc_core::Pose2;

/// A closed polyline given by its vertices.
pub struct Line {
    pts: Vec<(f64, f64)>,
    /// Arc length at the start of each segment.
    cum: Vec<f64>,
    length: f64,
}

impl Line {
    pub fn new(pts: Vec<(f64, f64)>) -> Self {
        let n = pts.len();
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            cum.push(acc);
            let (a, b) = (pts[i], pts[(i + 1) % n]);
            acc += (b.0 - a.0).hypot(b.1 - a.1);
        }
        Self {
            pts,
            cum,
            length: acc,
        }
    }

    /// `(arc length, signed lateral offset)` of the closest line point;
    /// positive lateral is left of the direction of travel.
    pub fn project(&self, x: f64, y: f64) -> (f64, f64) {
        let n = self.pts.len();
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for i in 0..n {
            let (a, b) = (self.pts[i], self.pts[(i + 1) % n]);
            let (dx, dy) = (b.0 - a.0, b.1 - a.1);
            let len2 = dx * dx + dy * dy;
            if len2 == 0.0 {
                continue;
            }
            let t = (((x - a.0) * dx + (y - a.1) * dy) / len2).clamp(0.0, 1.0);
            let (px, py) = (a.0 + t * dx, a.1 + t * dy);
            let d2 = (x - px).powi(2) + (y - py).powi(2);
            if d2 < best.0 {
                let len = len2.sqrt();
                let lateral = (dx * (y - py) - dy * (x - px)) / len;
                best = (d2, self.cum[i] + t * len, lateral);
            }
        }
        (best.1, best.2)
    }

    /// |lateral(estimate) − lateral(truth)| \[m\].
    pub fn lateral_gap(&self, truth: Pose2, est: Pose2) -> f64 {
        (self.project(est.x, est.y).1 - self.project(truth.x, truth.y).1).abs()
    }

    /// Whole laps driven along a pose trace: progress is unwrapped sample
    /// to sample by the shortest arc step, and every full line length is
    /// one lap. Returns the trace index at which each lap completed.
    pub fn lap_ends(&self, trace: &[Pose2]) -> Vec<usize> {
        let mut ends = Vec::new();
        let Some(first) = trace.first() else {
            return ends;
        };
        let mut prev = self.project(first.x, first.y).0;
        let mut progress = 0.0;
        for (i, p) in trace.iter().enumerate().skip(1) {
            let s = self.project(p.x, p.y).0;
            let mut ds = s - prev;
            if ds > 0.5 * self.length {
                ds -= self.length;
            } else if ds < -0.5 * self.length {
                ds += self.length;
            }
            progress += ds;
            prev = s;
            if progress >= self.length * (ends.len() + 1) as f64 {
                ends.push(i);
            }
        }
        ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Line {
        Line::new(vec![(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
    }

    #[test]
    fn projection_signs_left_positive() {
        let l = square();
        let (s, lat) = l.project(2.0, 0.5);
        assert!((s - 2.0).abs() < 1e-12);
        assert!((lat - 0.5).abs() < 1e-12, "{lat}");
        assert!((l.project(2.0, -0.5).1 + 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_laps_on_a_square() {
        let l = square();
        let trace: Vec<Pose2> = (0..=80)
            .map(|i| {
                let s = (i as f64 * 0.5) % 16.0;
                let (x, y) = match (s / 4.0) as usize {
                    0 => (s, 0.0),
                    1 => (4.0, s - 4.0),
                    2 => (12.0 - s, 4.0),
                    _ => (0.0, 16.0 - s),
                };
                Pose2::new(x, y, 0.0)
            })
            .collect();
        assert_eq!(l.lap_ends(&trace), vec![32, 64]);
    }
}
