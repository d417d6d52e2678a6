//! The served column of the executor tests: a job's query submitted to
//! a 2-worker `QueryService` over the job's own source.

use fastmatch_core::error::{CoreError, Result};
use fastmatch_engine::exec::Executor;
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::result::MatchOutput;
use fastmatch_engine::service::{
    QueryOutcome, QueryRequest, QueryService, ServiceConfig, ServiceError,
};

/// Runs a job as the only query of a 2-worker service, so the service
/// sits in the executor loops beside the single-query executors.
pub struct Served;

impl Executor for Served {
    fn name(&self) -> &'static str {
        "Service"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        let req = QueryRequest::new(
            &job.bitmap,
            job.z_attr,
            job.x_attr,
            job.target.clone(),
            job.cfg.clone(),
        )
        .with_seed(seed);
        let config = ServiceConfig::default().with_workers(2);
        let outcome = job.with_backend(|backend| {
            QueryService::serve(backend, config, |svc| svc.submit(req).map(|h| h.wait()))
        });
        match outcome {
            Ok(QueryOutcome::Finished(out)) => Ok(out),
            Ok(QueryOutcome::Failed(e)) | Err(ServiceError::Invalid(e)) => Err(e),
            other => Err(CoreError::PhaseViolation(format!("unfinished: {other:?}"))),
        }
    }
}
