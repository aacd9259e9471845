//! Synthetic IMDB-like dataset (the paper's "IMDB" is the GroupLens
//! MovieLens-1M dump: `Users(UserID, Gender, Age, Occupation, Zip-code)`,
//! `Movies(MovieID, Title, Genres)`, `Ratings(UserID, MovieID, Rating,
//! Timestamp)` with 6.04K / 3.88K / 1,000.21K tuples — each user rates
//! 165.6 movies and each movie is rated 257.6 times on average, giving the
//! *dense* bipartite topology responsible for the multi-center communities
//! of Fig. 9/10).
//!
//! The generator reproduces that density shape at a laptop-friendly scale:
//! long-tailed per-user rating counts, preferential movie popularity, and
//! Table V keywords planted into movie titles at exact KWFs.

use crate::dblp::GeneratedDataset;
use crate::keywords::{filler_title, plant_keywords, PlantSpec};
use crate::sampling::WeightedSampler;
use crate::workload::{all_plant_specs, IMDB_KEYWORD_GROUPS};
use comm_graph::SplitMix64;
use comm_rdb::{
    ColumnDef, ColumnType, Database, DatabaseGraph, EdgeMode, TableSchema, Value, WeightScheme,
};

/// Configuration for the IMDB-like generator.
#[derive(Clone, Debug)]
pub struct ImdbConfig {
    /// Number of users (paper full scale: 6,040).
    pub users: usize,
    /// Number of movies (paper full scale: 3,883).
    pub movies: usize,
    /// Mean ratings per user (paper: 165.6; scaled default keeps the
    /// graph dense while staying laptop-sized).
    pub avg_ratings_per_user: f64,
    /// RNG seed.
    pub seed: u64,
    /// Keywords to plant (defaults to every Table V keyword).
    pub plant: Vec<PlantSpec>,
}

impl Default for ImdbConfig {
    fn default() -> ImdbConfig {
        ImdbConfig {
            users: 650,
            movies: 420,
            avg_ratings_per_user: 55.0,
            seed: 0x14DB_2000,
            plant: all_plant_specs(IMDB_KEYWORD_GROUPS),
        }
    }
}

impl ImdbConfig {
    /// Scales user/movie counts by `factor`.
    pub fn scaled(mut self, factor: f64) -> ImdbConfig {
        self.users = ((self.users as f64) * factor).round() as usize;
        self.movies = ((self.movies as f64) * factor).round() as usize;
        self
    }

    /// The paper's full MovieLens-1M scale: 6,040 users, 3,883 movies,
    /// ≈ 1M ratings (≈ 1.01M tuples, ≈ 4.0M directed edges).
    pub fn paper_scale() -> ImdbConfig {
        ImdbConfig {
            users: 6_040,
            movies: 3_883,
            avg_ratings_per_user: 165.6,
            ..ImdbConfig::default()
        }
    }
}

const GENRES: [&str; 8] = [
    "drama",
    "comedy",
    "action",
    "thriller",
    "romance",
    "horror",
    "documentary",
    "animation",
];
const OCCUPATIONS: [&str; 6] = [
    "engineer", "artist", "student", "doctor", "writer", "farmer",
];

/// Generates the IMDB-like database and materializes its graph.
pub fn generate_imdb(config: &ImdbConfig) -> GeneratedDataset {
    let mut rng = SplitMix64::new(config.seed);

    // Ratings: per user, a long-tailed count (exponential-ish around the
    // mean); movies chosen preferentially (hits get most ratings).
    let mut movie_sampler = WeightedSampler::new(config.movies);
    let mut ratings: Vec<(usize, usize)> = Vec::new();
    for user in 0..config.users {
        // Geometric-like tail: 1 + floor(Exp(mean-1)).
        let mean = (config.avg_ratings_per_user - 1.0).max(0.0);
        let count = 1 + sample_exponential(&mut rng, mean).min(config.movies.saturating_sub(1));
        let mut seen = std::collections::HashSet::with_capacity(count);
        while seen.len() < count {
            let m = movie_sampler.sample(&mut rng);
            if seen.insert(m) {
                movie_sampler.add(m, 1);
                ratings.push((user, m));
            }
        }
    }

    let total_tuples = config.users + config.movies + ratings.len();
    let mut titles: Vec<String> = (0..config.movies).map(|_| filler_title(&mut rng)).collect();
    // Movie keyword placement is uniform: the rating graph is dense enough
    // that communities form without topical correlation.
    plant_keywords(
        &mut titles,
        &[],
        0.0,
        0.0,
        total_tuples,
        &config.plant,
        config.seed,
    );

    let mut db = Database::new();
    let users_t = db.create_table(
        TableSchema::new(
            "Users",
            vec![
                ColumnDef::new("UserID", ColumnType::Int),
                ColumnDef::new("Gender", ColumnType::Text),
                ColumnDef::new("Age", ColumnType::Int),
                ColumnDef::full_text("Occupation"),
                ColumnDef::new("Zipcode", ColumnType::Text),
            ],
        )
        .with_primary_key("UserID"),
    );
    let movies_t = db.create_table(
        TableSchema::new(
            "Movies",
            vec![
                ColumnDef::new("MovieID", ColumnType::Int),
                ColumnDef::full_text("Title"),
                ColumnDef::full_text("Genres"),
            ],
        )
        .with_primary_key("MovieID"),
    );
    let ratings_t = db.create_table(
        TableSchema::new(
            "Ratings",
            vec![
                ColumnDef::new("UserID", ColumnType::Int),
                ColumnDef::new("MovieID", ColumnType::Int),
                ColumnDef::new("Rating", ColumnType::Int),
                ColumnDef::new("Timestamp", ColumnType::Int),
            ],
        )
        .with_foreign_key("UserID", users_t)
        .with_foreign_key("MovieID", movies_t),
    );

    for u in 0..config.users {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            users_t,
            &[
                Value::Int(u as i64),
                Value::Text(if u % 2 == 0 { "M".into() } else { "F".into() }),
                Value::Int(18 + (u % 50) as i64),
                Value::Text(OCCUPATIONS[u % OCCUPATIONS.len()].to_owned()),
                Value::Text(format!("{:05}", (u * 37) % 100_000)),
            ],
        )
        .expect("user insert");
    }
    for (m, title) in titles.into_iter().enumerate() {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            movies_t,
            &[
                Value::Int(m as i64),
                Value::Text(title),
                Value::Text(GENRES[m % GENRES.len()].to_owned()),
            ],
        )
        .expect("movie insert");
    }
    let mut ts = 960_000_000i64;
    for &(u, m) in &ratings {
        ts += 7;
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            ratings_t,
            &[
                Value::Int(u as i64),
                Value::Int(m as i64),
                Value::Int(1 + ((u + m) % 5) as i64),
                Value::Int(ts),
            ],
        )
        .expect("rating insert");
    }

    let graph = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
    GeneratedDataset {
        name: "imdb-synthetic",
        db,
        graph,
    }
}

/// Samples `floor(Exp(mean))` (long-tailed, mean ≈ `mean`).
fn sample_exponential(rng: &mut SplitMix64, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let u: f64 = rng.unit_f64().max(1e-12);
    (-u.ln() * mean).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_rdb::TableId;

    fn small() -> ImdbConfig {
        ImdbConfig::default().scaled(0.3)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_imdb(&small());
        let b = generate_imdb(&small());
        assert_eq!(a.graph.graph.edge_count(), b.graph.graph.edge_count());
        assert_eq!(a.graph.keyword_nodes("star"), b.graph.keyword_nodes("star"));
    }

    #[test]
    fn denser_than_dblp() {
        // The defining contrast of Sec. VII: IMDB's graph is denser.
        let imdb = generate_imdb(&small());
        let dblp = crate::dblp::generate_dblp(&crate::dblp::DblpConfig::default().scaled(0.1));
        let density = |d: &GeneratedDataset| {
            d.graph.graph.edge_count() as f64 / d.graph.graph.node_count() as f64
        };
        assert!(density(&imdb) > density(&dblp));
    }

    #[test]
    fn ratings_dominate_tuples() {
        let d = generate_imdb(&small());
        let ratings = d.db.table(TableId(2)).len();
        assert!(ratings * 2 > d.db.tuple_count());
        assert_eq!(d.graph.graph.edge_count(), 2 * 2 * ratings);
    }

    #[test]
    fn planted_kwf_is_exact() {
        let d = generate_imdb(&small());
        let total = d.db.tuple_count();
        for group in IMDB_KEYWORD_GROUPS {
            for kw in group.keywords {
                let nodes = d.graph.keyword_nodes(kw).len();
                let want = (group.kwf * total as f64).round() as usize;
                assert_eq!(nodes, want, "kwf of {kw}");
            }
        }
    }

    #[test]
    fn movie_popularity_long_tailed() {
        // Default scale: at `small()` the per-user rating count is capped by
        // the movie count and the spread shrinks to sampling noise.
        let d = generate_imdb(&ImdbConfig::default());
        let movies = d.db.table(TableId(1)).len();
        let mut pop = vec![0usize; movies];
        let ratings = d.db.table(TableId(2));
        for row in ratings.rows() {
            let m = ratings.cell(row, comm_rdb::ColumnId(1)).as_int().unwrap() as usize;
            pop[m] += 1;
        }
        let max = *pop.iter().max().unwrap();
        let min = *pop.iter().min().unwrap();
        let mean = pop.iter().sum::<usize>() as f64 / movies as f64;
        assert!(max as f64 > mean * 1.8, "max {max}, mean {mean}");
        assert!((min as f64) < mean * 0.2, "min {min}, mean {mean}");
    }

    #[test]
    fn no_duplicate_user_movie_pairs() {
        let d = generate_imdb(&ImdbConfig::default().scaled(0.1));
        let ratings = d.db.table(TableId(2));
        let mut seen = std::collections::HashSet::new();
        for row in ratings.rows() {
            let u = ratings.cell(row, comm_rdb::ColumnId(0)).as_int().unwrap();
            let m = ratings.cell(row, comm_rdb::ColumnId(1)).as_int().unwrap();
            assert!(seen.insert((u, m)), "duplicate rating ({u}, {m})");
        }
    }
}
