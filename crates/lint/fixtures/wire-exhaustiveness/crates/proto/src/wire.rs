//! Fixture: a wire enum with a missing tag const, a tag skipped by the
//! (appending) encoder, and an orphaned tag const.

/// Tag for [`Message::Get`].
pub const T_GET: u8 = 1;
/// Tag for [`Message::GetReply`].
pub const T_GET_REPLY: u8 = 2;
/// Tag for [`Message::Hint`].
pub const T_HINT: u8 = 3;
/// Orphan: no `Message` variant maps to this tag.
pub const T_RETIRED: u8 = 9;

/// The fixture wire protocol.
pub enum Message {
    /// Request an object.
    Get {
        /// Object key.
        key: u64,
    },
    /// Reply with the object body.
    GetReply {
        /// Object bytes.
        body: Vec<u8>,
    },
    /// Advertise an object — its tag is never encoded or decoded.
    Hint {
        /// Object key.
        key: u64,
    },
    /// Tear down — has no tag const at all.
    Goodbye,
}

impl Message {
    /// Encodes the frame into a cleared `out`. The tag arms live in the
    /// appending form below; the rule must follow the delegation, or it
    /// would report `T_GET` and `T_GET_REPLY` as never written.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.clear();
        self.encode_into(out);
    }

    /// Appends the frame (forgetting `T_HINT`).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Message::Get { .. } => T_GET,
            Message::GetReply { .. } => T_GET_REPLY,
            Message::Hint { .. } => 0,
            Message::Goodbye => 0,
        });
    }

    /// Decodes a frame (also forgetting `T_HINT`).
    pub fn decode(buf: &[u8]) -> Option<Message> {
        match buf.first()? {
            &T_GET => Some(Message::Get { key: 0 }),
            &T_GET_REPLY => Some(Message::GetReply { body: vec![] }),
            _ => None,
        }
    }
}
