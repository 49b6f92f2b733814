"""Serialization/deserialization cost models (Section 2).

Java serialization turns heap object graphs into byte streams (and back),
traversing the transitive closure of the root object and materialising
temporary objects that pressure the young generation.  Kryo is the
optimised serializer Spark recommends and the paper uses.
"""

from .serializer import (
    KryoSerializer,
    SerializedBlob,
    Serializer,
)

__all__ = ["KryoSerializer", "SerializedBlob", "Serializer"]
