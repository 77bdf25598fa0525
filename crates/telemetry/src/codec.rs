//! The observation line of a trace, written and read without a tree.
//!
//! A trace carries one [`Observation`] per control period, so the line
//! codec is the telemetry plane's only JSON text on a hot loop. It is
//! written against the fixed schema instead of through the derives'
//! `Value` tree: [`encode_observation`] appends the line with the scalar
//! writers `Value::to_json` itself uses, in the derives' field order, and
//! [`decode_observation_into`] drives the [`Cursor`] `serde_json::from_str`
//! is built on straight into the types. The `Serialize` / `Deserialize`
//! derives stay the public representation and the oracle:
//! `tests/properties.rs` holds the two byte-equal on output and equal on
//! accept / reject and value for any input text.

use crate::observation::{AppClass, ContainerId, ContainerObs, Observation};
use crate::resources::ResourceVector;
use serde::value::{write_json_bool, write_json_f64, write_json_string, write_json_u64, Cursor};

/// Appends `observation` to `out` as one line of compact JSON (no
/// newline), byte for byte what `serde_json::to_string` renders.
pub fn encode_observation(out: &mut String, observation: &Observation) {
    out.push_str("{\"tick\":");
    write_json_u64(out, observation.tick);
    out.push_str(",\"containers\":[");
    for (i, container) in observation.containers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_container(out, container);
    }
    out.push_str("],\"qos_violation\":");
    write_json_bool(out, observation.qos_violation);
    out.push_str(",\"qos_value\":");
    write_json_f64(out, observation.qos_value);
    out.push('}');
}

fn encode_container(out: &mut String, c: &ContainerObs) {
    out.push_str("{\"id\":");
    write_json_u64(out, c.id.raw() as u64);
    out.push_str(",\"name\":");
    write_json_string(out, &c.name);
    out.push_str(match c.class {
        AppClass::Sensitive => ",\"class\":\"Sensitive\",\"active\":",
        AppClass::Batch => ",\"class\":\"Batch\",\"active\":",
    });
    write_json_bool(out, c.active);
    out.push_str(",\"paused\":");
    write_json_bool(out, c.paused);
    out.push_str(",\"finished\":");
    write_json_bool(out, c.finished);
    out.push_str(",\"usage\":{\"values\":[");
    for (i, &v) in c.usage.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_f64(out, v);
    }
    out.push_str("]},\"ipc\":");
    write_json_f64(out, c.ipc);
    out.push_str(",\"priority\":");
    write_json_u64(out, u64::from(c.priority));
    out.push('}');
}

/// Decodes one observation line into `out`, reusing its `containers`
/// vector and their name strings: on success `out` holds the decoded
/// observation, whatever it held before; on failure its contents are
/// unspecified. Like the derives it accepts members in any order, any JSON
/// whitespace, string escapes, an integer where a float is expected,
/// unknown members (skipped) and repeated members (the first counts).
///
/// # Errors
///
/// A message naming the byte offset of a syntax error, the member that has
/// the wrong type or is out of range, or the member that is missing.
pub fn decode_observation_into(line: &str, out: &mut Observation) -> Result<(), String> {
    let mut cursor = Cursor::new(line);
    observation(&mut cursor, out)?;
    cursor.end()
}

/// Reads a member into its slot, or skips it when an earlier member of the
/// same name already filled the slot.
fn fill<'a, T>(
    slot: &mut Option<T>,
    cursor: &mut Cursor<'a>,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return cursor.skip_value();
    }
    *slot = Some(read(cursor)?);
    Ok(())
}

fn required<T>(slot: Option<T>, field: &str, owner: &str) -> Result<T, String> {
    slot.ok_or_else(|| format!("missing field `{field}` in {owner}"))
}

fn observation(cursor: &mut Cursor<'_>, out: &mut Observation) -> Result<(), String> {
    let (mut tick, mut containers, mut qos_violation, mut qos_value) = (None, None, None, None);
    cursor.object(|cursor, key| match &*key {
        "tick" => fill(&mut tick, cursor, Cursor::u64),
        "containers" => fill(&mut containers, cursor, |cursor| {
            let mut len = 0;
            cursor.array(|cursor| {
                container(cursor, out.container_slot(len))?;
                len += 1;
                Ok(())
            })?;
            out.containers.truncate(len);
            Ok(())
        }),
        "qos_violation" => fill(&mut qos_violation, cursor, Cursor::bool),
        "qos_value" => fill(&mut qos_value, cursor, Cursor::f64),
        _ => cursor.skip_value(),
    })?;
    out.tick = required(tick, "tick", "Observation")?;
    required(containers, "containers", "Observation")?;
    out.qos_violation = required(qos_violation, "qos_violation", "Observation")?;
    out.qos_value = required(qos_value, "qos_value", "Observation")?;
    Ok(())
}

/// Decodes one container into `out`; the name goes into its existing
/// buffer.
fn container(cursor: &mut Cursor<'_>, out: &mut ContainerObs) -> Result<(), String> {
    let (mut id, mut name, mut class, mut usage, mut ipc, mut priority) =
        (None, None, None, None, None, None);
    let (mut active, mut paused, mut finished) = (None, None, None);
    cursor.object(|cursor, key| match &*key {
        "id" => fill(&mut id, cursor, |cursor| {
            let raw = usize::try_from(cursor.u64()?).map_err(|_| "id out of range")?;
            Ok(ContainerId::from_raw(raw))
        }),
        "name" => fill(&mut name, cursor, |cursor| {
            let text = cursor.string()?;
            out.name.clear();
            out.name.push_str(&text);
            Ok(())
        }),
        "class" => fill(&mut class, cursor, |cursor| match &*cursor.string()? {
            "Sensitive" => Ok(AppClass::Sensitive),
            "Batch" => Ok(AppClass::Batch),
            other => Err(format!("unknown AppClass variant `{other}`")),
        }),
        "active" => fill(&mut active, cursor, Cursor::bool),
        "paused" => fill(&mut paused, cursor, Cursor::bool),
        "finished" => fill(&mut finished, cursor, Cursor::bool),
        "usage" => fill(&mut usage, cursor, resource_vector),
        "ipc" => fill(&mut ipc, cursor, Cursor::f64),
        "priority" => fill(&mut priority, cursor, |cursor| {
            u8::try_from(cursor.u64()?).map_err(|_| "priority out of range".to_string())
        }),
        _ => cursor.skip_value(),
    })?;
    out.id = required(id, "id", "ContainerObs")?;
    required(name, "name", "ContainerObs")?;
    out.class = required(class, "class", "ContainerObs")?;
    out.active = required(active, "active", "ContainerObs")?;
    out.paused = required(paused, "paused", "ContainerObs")?;
    out.finished = required(finished, "finished", "ContainerObs")?;
    out.usage = required(usage, "usage", "ContainerObs")?;
    out.ipc = required(ipc, "ipc", "ContainerObs")?;
    out.priority = required(priority, "priority", "ContainerObs")?;
    Ok(())
}

fn resource_vector(cursor: &mut Cursor<'_>) -> Result<ResourceVector, String> {
    let mut values = None;
    cursor.object(|cursor, key| match &*key {
        "values" => fill(&mut values, cursor, |cursor| {
            let mut values = [0.0; 6];
            let mut len = 0;
            cursor.array(|cursor| {
                let v = cursor.f64()?;
                if let Some(slot) = values.get_mut(len) {
                    *slot = v;
                }
                len += 1;
                Ok(())
            })?;
            if len == values.len() {
                Ok(values)
            } else {
                Err(format!("expected 6 usage values, found {len}"))
            }
        }),
        _ => cursor.skip_value(),
    })?;
    Ok(ResourceVector {
        values: required(values, "values", "ResourceVector")?,
    })
}
