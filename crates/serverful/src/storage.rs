//! Client-side storage facade and CloudObject helpers.
//!
//! Mirrors Lithops' `Storage` object (Listing 1): synchronous
//! `put_cloudobject` / `get_cloudobject` calls from the client that block
//! on (simulated) completion. Logical functions access storage through
//! [`Action`](crate::Action)s instead — their I/O is part of the timed,
//! contended path on their own host.

use cloudsim::{Notify, ObjectBody, OpId, OpOutcome};

use crate::cloudobject::CloudObjectRef;
use crate::env::CloudEnv;
use crate::error::ExecError;
use crate::payload::Payload;

/// A handle to the object storage service from the client's vantage
/// point.
#[derive(Debug, Clone)]
pub struct Storage {
    bucket: String,
    counter: std::cell::Cell<u64>,
}

impl Storage {
    /// Creates a facade writing CloudObjects into `bucket`.
    pub fn new(bucket: impl Into<String>) -> Self {
        Storage {
            bucket: bucket.into(),
            counter: std::cell::Cell::new(0),
        }
    }

    /// The bucket this facade targets.
    pub fn bucket(&self) -> &str {
        &self.bucket
    }

    /// Serialises a payload and uploads it as a fresh CloudObject,
    /// blocking until the upload completes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Stalled`] if the simulation drains first.
    pub fn put_cloudobject(
        &self,
        env: &mut CloudEnv,
        payload: &Payload,
    ) -> Result<CloudObjectRef, ExecError> {
        let n = self.counter.get();
        self.counter.set(n + 1);
        let key = format!("cloudobjects/{n:08}");
        let body = match payload {
            // Opaque payloads stand in for large data: store size-only.
            Payload::Opaque { size } => ObjectBody::opaque(*size),
            other => ObjectBody::real(other.encode()),
        };
        let size = body.len();
        let client = env.world().client_host();
        let op = env
            .world_mut()
            .put_object(client, &self.bucket, &key, body);
        wait_op(env, op)?;
        Ok(CloudObjectRef::new(self.bucket.clone(), key, size))
    }

    /// Downloads and decodes a CloudObject, blocking until done.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MissingObject`] if the ref is dangling, or a
    /// decode error for corrupt contents.
    pub fn get_cloudobject(
        &self,
        env: &mut CloudEnv,
        cobj: &CloudObjectRef,
    ) -> Result<Payload, ExecError> {
        let client = env.world().client_host();
        let op = env
            .world_mut()
            .get_object(client, &cobj.bucket, &cobj.key);
        match wait_op(env, op)? {
            OpOutcome::GetOk { body } => match body.bytes() {
                Some(bytes) => Payload::decode(bytes),
                None => Ok(Payload::Opaque { size: body.len() }),
            },
            OpOutcome::GetMissing => Err(ExecError::MissingObject {
                bucket: cobj.bucket.clone(),
                key: cobj.key.clone(),
            }),
            other => unreachable!("get yielded {other:?}"),
        }
    }

    /// Deletes a CloudObject, blocking until done.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Stalled`] if the simulation drains first.
    pub fn delete_cloudobject(
        &self,
        env: &mut CloudEnv,
        cobj: &CloudObjectRef,
    ) -> Result<(), ExecError> {
        let client = env.world().client_host();
        let op = env
            .world_mut()
            .delete_object(client, &cobj.bucket, &cobj.key);
        wait_op(env, op)?;
        Ok(())
    }
}

/// Pumps the world until `op` completes. Other notifications surfacing in
/// the meantime are dropped — client-blocking calls are only legal while
/// no job is in flight, which the framework's sequential client model
/// guarantees.
fn wait_op(env: &mut CloudEnv, op: OpId) -> Result<OpOutcome, ExecError> {
    let client = env.world().client_host();
    let _ = client;
    loop {
        match env.world_mut().step() {
            Some((_, Notify::Op { op: done, outcome })) if done == op => return Ok(outcome),
            Some(_) => continue,
            None => {
                return Err(ExecError::Stalled(format!(
                    "simulation drained waiting on {op}"
                )))
            }
        }
    }
}
