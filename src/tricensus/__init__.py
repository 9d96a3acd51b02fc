"""tricensus: exact triangulation counting and classification for planar point sets."""
