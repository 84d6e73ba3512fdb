"""The parts of an index snapshot as they are before deflation, for tests
that read or patch the bytes of a part.

A snapshot stores its header as it is, then its document table and its
postings, each as the stored and inflated lengths of a raw DEFLATE
stream, then the stream, then a CRC of the lengths and the stream.
``inflated`` gives the header and each part inflated, joined in file
order, and ``deflated`` writes such bytes back as a snapshot: a test patches what the parts hold, and offsets into it
stay those of the parts' own layout. ``deflate_part`` deflates one part
with any lengths stated, for files that break the deflated framing.
"""

import struct
import zlib

HEADER_BYTES = 34  # magic, version, k1, b, two fingerprints, CRC
DEFLATED = struct.Struct("<II")  # a deflated part's stored and inflated lengths
CRC = struct.Struct("<I")


def deflate(data):
    """``data`` as a raw DEFLATE stream, at zlib's default level."""
    deflater = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -zlib.MAX_WBITS)
    return deflater.compress(data) + deflater.flush()


def deflate_part(part, stream=None, stored=None, inflated=None):
    """``part`` as the file stores it: its lengths, then its stream,
    ``deflate(part)`` unless given, then their CRC. ``stored`` and
    ``inflated``, if given, replace the true lengths."""
    stream = deflate(part) if stream is None else stream
    stored = len(stream) if stored is None else stored
    inflated = len(part) if inflated is None else inflated
    framed = DEFLATED.pack(stored, inflated) + stream
    return framed + CRC.pack(zlib.crc32(framed))


def parts(data):
    """The header, the document table and the postings of the snapshot
    ``data``, each part inflated; any fault in the framing fails."""
    found, start = [data[:HEADER_BYTES]], HEADER_BYTES
    for _ in range(2):
        stored, size = DEFLATED.unpack_from(data, start)
        end = start + DEFLATED.size + stored
        assert CRC.unpack_from(data, end) == (zlib.crc32(data[start:end]),)
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        found.append(inflater.decompress(data[start + DEFLATED.size:end]))
        assert inflater.eof and not inflater.unused_data and len(found[-1]) == size
        start = end + CRC.size
    assert start == len(data)
    return found


def inflated(data):
    """The snapshot ``data`` with its two parts inflated in place of their
    lengths and streams: the header, the document table, the postings."""
    return b"".join(parts(data))


def postings_start(image):
    """Where the postings start in the inflated ``image``: after the
    header and the document table, whose head and length column's width
    give its size."""
    doc_count, id_bytes = struct.unpack_from("<II", image, HEADER_BYTES)
    width = image[HEADER_BYTES + 8 + id_bytes]
    return HEADER_BYTES + 8 + id_bytes + 1 + width * doc_count + 4


def deflated(image, postings=None):
    """The snapshot file of the inflated ``image``: its header, then its
    document table and its postings, split at ``postings`` (where the
    document table's head says, if not given), each deflated."""
    postings = postings_start(image) if postings is None else postings
    return (
        image[:HEADER_BYTES]
        + deflate_part(image[HEADER_BYTES:postings])
        + deflate_part(image[postings:])
    )
